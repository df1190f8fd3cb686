// Command trustnewsd serves a trusting-news platform node over JSON/HTTP.
// It boots a standalone node, trains the AI component, optionally seeds a
// demo factual database, and listens. With -data the chain is persisted
// to a write-ahead log and the node checkpoints its derived state
// periodically, so restarts replay only the WAL tail above the last
// checkpoint instead of the whole chain.
//
//	go run ./cmd/trustnewsd -addr :8080 -seed-demo
//	go run ./cmd/trustnewsd -data /var/lib/trustnews -checkpoint-interval 5m
//
// With -node-id/-peers the daemon instead joins a replicated cluster:
// validators talk BFT consensus over TCP, blocks are decided by quorum
// and every node applies the same chain. Each validator needs its own
// -data directory:
//
//	go run ./cmd/trustnewsd -node-id p0 -data /var/lib/tn0 -addr :8080 \
//	    -peers p0=127.0.0.1:9000,p1=127.0.0.1:9001,p2=127.0.0.1:9002,p3=127.0.0.1:9003
//
// Then, for example:
//
//	curl localhost:8080/v1/chain
//	curl localhost:8080/v1/commitbus
//	curl localhost:8080/v1/facts
//	curl localhost:8080/v1/experts?topic=politics
//	curl localhost:8080/v1/metrics
//	curl localhost:8080/v1/traces
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/aidetect"
	"repro/internal/consensus"
	"repro/internal/corpus"
	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

// options collects the daemon configuration parsed from flags.
type options struct {
	addr       string
	seedDemo   bool
	corpusSeed int64
	dataDir    string
	blobDir    string
	ckptEvery  time.Duration
	pprofAddr  string

	// Async ingestion pipeline (POST /v1/ingest).
	ingestWorkers  int
	ingestQueueCap int

	// Cluster mode (all empty/zero = standalone node).
	nodeID        string
	listen        string
	peers         string
	blockInterval time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	flag.BoolVar(&o.seedDemo, "seed-demo", false, "seed a demo factual database (standalone mode only)")
	flag.Int64Var(&o.corpusSeed, "corpus-seed", 1, "training corpus seed")
	flag.StringVar(&o.dataDir, "data", "", "durable data directory (empty = in-memory node)")
	flag.StringVar(&o.blobDir, "blob-dir", "", "off-chain article body store directory (default <data>/blobs for durable nodes, in-memory otherwise)")
	flag.DurationVar(&o.ckptEvery, "checkpoint-interval", 5*time.Minute, "how often a durable node checkpoints derived state (0 disables)")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it private)")
	flag.IntVar(&o.ingestWorkers, "ingest-workers", 4, "async ingestion pipeline workers (0 disables POST /v1/ingest)")
	flag.IntVar(&o.ingestQueueCap, "ingest-queue-cap", 4096, "ingest queue capacity; beyond it enqueues shed with 429")
	flag.StringVar(&o.nodeID, "node-id", "", "validator identity (p0..p{n-1}); enables cluster mode")
	flag.StringVar(&o.listen, "listen", "", "consensus TCP listen address (default: this node's -peers entry)")
	flag.StringVar(&o.peers, "peers", "", "full validator address map, id=host:port comma-separated, self included")
	flag.DurationVar(&o.blockInterval, "block-interval", 200*time.Millisecond, "cluster mode: the longest an idle validator waits before an empty heartbeat block; a validator with a transaction to propose enters the next height at once, or "+consensus.TxPace.String()+" per transaction of the last block after it started, whichever is later")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "trustnewsd:", err)
		os.Exit(1)
	}
}

// run boots the node and serves until ctx is cancelled (SIGINT/SIGTERM in
// production), then shuts the HTTP server down gracefully and, for durable
// nodes, flushes a final checkpoint so the next start replays nothing.
func run(ctx context.Context, o options) error {
	var (
		p   *platform.Platform
		err error
	)
	cfg := platform.DefaultConfig()
	// The daemon always carries a live registry: metrics cost next to
	// nothing and /v1/metrics is part of the serving surface.
	cfg.Telemetry = telemetry.New()
	// Production nodes always run with admission control: shed excess
	// load with 429s before queues grow instead of timing out under it.
	cfg.Admission = admission.DefaultConfig()
	if o.blobDir != "" {
		if err := os.MkdirAll(o.blobDir, 0o755); err != nil {
			return err
		}
		cfg.BlobDir = o.blobDir
	}
	if o.dataDir != "" {
		if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
			return err
		}
		var closeFn func() error
		p, closeFn, err = platform.Open(o.dataDir, cfg)
		if err != nil {
			return err
		}
		defer closeFn()
	} else {
		p, err = platform.New(cfg)
		if err != nil {
			return err
		}
	}
	p.SetClock(time.Now) // live deployment: real block timestamps
	gen := corpus.NewGenerator(o.corpusSeed)
	if err := p.TrainClassifier(aidetect.NewLogisticRegression(), gen.Generate(500, 500).Statements); err != nil {
		return err
	}
	if o.dataDir != "" {
		// The boot split is also trustnews_boot_seconds{phase} on /v1/metrics.
		b := p.Boot()
		log.Printf("durable node at %s: height %d, checkpoint height %d, %d blobs, %d tx index segments rebuilt; boot: open %s (restore %s, replay %s), train %s",
			o.dataDir, p.Chain().Height(), p.CheckpointHeight(), p.Blobs().Stats().Blobs, p.Chain().TxIndexStats().Rebuilt,
			b.Open.Round(time.Microsecond), b.Restore.Round(time.Microsecond), b.Replay.Round(time.Microsecond), b.Train.Round(time.Microsecond))
		if o.ckptEvery > 0 {
			go checkpointLoop(ctx, p, o.ckptEvery)
		}
	}

	clustered := o.nodeID != "" || o.peers != ""
	if clustered && o.seedDemo {
		// SeedFact commits standalone blocks, which replicated mode
		// forbids (facts must arrive as consensus-decided txs).
		return errors.New("-seed-demo is incompatible with cluster mode")
	}
	if o.seedDemo && p.FactIndex().Len() == 0 {
		for i := 0; i < 25; i++ {
			s := gen.Factual()
			if err := p.SeedFact(s.ID, s.Topic, s.Text); err != nil {
				return err
			}
		}
		log.Printf("seeded %d demo facts (root %s)", p.FactIndex().Len(), p.FactIndex().Root().Short())
	}

	var tr *tcp.Transport
	if clustered {
		if tr, err = joinCluster(p, o); err != nil {
			return err
		}
		defer tr.Close()
	}

	if o.pprofAddr != "" {
		go servePprof(o.pprofAddr)
	}
	// Standalone nodes mine a block per accepted tx (synchronous
	// semantics); clustered nodes let consensus drive commits.
	api := httpapi.New(p, !clustered)
	if tr != nil {
		api.SetPeersConnected(tr.PeersConnected)
	}
	var pipeline *ingest.Pipeline
	// The committer outlives ctx so that it stops after the ingest
	// workers do; drained is closed once it has emptied the mempool.
	commitCtx, stopCommitter := context.WithCancel(context.Background())
	defer stopCommitter()
	drained := make(chan struct{})
	if o.ingestWorkers > 0 {
		pipeline, err = startIngest(p, o)
		if err != nil {
			return err
		}
		api.SetIngest(pipeline)
	}
	if pipeline != nil && !clustered {
		// Pipeline workers publish straight into the mempool, not through
		// the auto-committing HTTP path: the committer puts their
		// transactions in blocks as they arrive.
		go func() {
			defer close(drained)
			if err := p.RunCommitter(commitCtx); err != nil {
				log.Printf("committer: %v", err)
			}
		}()
	} else {
		close(drained)
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("trustnewsd listening on %s (authority %s)", o.addr, p.Authority().Short())
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutdown: draining connections")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: drain: %v", err)
		srv.Close()
	}
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	if pipeline != nil {
		// Stop the workers, then seal the queue WAL. Items still in
		// flight replay on the next start; nothing accepted is lost.
		pipeline.Stop()
		if err := pipeline.Queue().Close(); err != nil {
			log.Printf("shutdown: ingest queue: %v", err)
		}
		st := pipeline.Stats()
		log.Printf("shutdown: ingest pipeline stopped (published %d, deduped %d, queued %d)", st.Published, st.Deduped, st.Queue.Depth)
	}
	// Whatever the workers submitted last is committed before the final
	// checkpoint is cut.
	stopCommitter()
	<-drained
	if o.dataDir != "" && p.Chain().Height() != p.CheckpointHeight() {
		if err := p.WriteCheckpoint(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		log.Printf("shutdown: final checkpoint at height %d", p.CheckpointHeight())
	}
	return nil
}

// startIngest builds and starts the async ingestion pipeline. Durable
// nodes back the queue with a WAL beside the chain log so a crash loses
// no accepted article; in-memory nodes get an in-memory queue.
func startIngest(p *platform.Platform, o options) (*ingest.Pipeline, error) {
	var wal store.Log
	if o.dataDir != "" {
		fl, err := store.OpenFileLog(filepath.Join(o.dataDir, "ingest.wal"))
		if err != nil {
			return nil, fmt.Errorf("ingest WAL: %w", err)
		}
		fl.Instrument(p.Telemetry(), "ingest")
		wal = fl
	}
	q, err := ingest.NewQueue(wal, o.ingestQueueCap)
	if err != nil {
		return nil, fmt.Errorf("ingest queue: %w", err)
	}
	pl := ingest.NewPipeline(p, q, o.ingestWorkers)
	pl.Instrument(p.Telemetry())
	pl.Start()
	if d := q.Depth(); d > 0 {
		log.Printf("ingest queue recovered %d unacked articles from WAL", d)
	}
	log.Printf("ingest pipeline: %d workers, queue capacity %d", o.ingestWorkers, o.ingestQueueCap)
	return pl, nil
}

// joinCluster wires the platform into a TCP-backed consensus cluster:
// it parses the validator address map, starts the transport, attaches a
// consensus node, and installs the mempool relay so transactions
// submitted to any node's HTTP API reach every proposer.
func joinCluster(p *platform.Platform, o options) (*tcp.Transport, error) {
	addrs, err := parsePeers(o.peers)
	if err != nil {
		return nil, err
	}
	if o.nodeID == "" {
		return nil, errors.New("cluster mode needs -node-id")
	}
	self := transport.NodeID(o.nodeID)
	if _, ok := addrs[self]; !ok {
		return nil, fmt.Errorf("-peers has no entry for this node %q", self)
	}
	set, kps, err := platform.ClusterValidators(len(addrs))
	if err != nil {
		return nil, err
	}
	idx := -1
	for i := range kps {
		if platform.ValidatorID(i) == self {
			idx = i
		}
		if _, ok := addrs[platform.ValidatorID(i)]; !ok {
			return nil, fmt.Errorf("-peers must cover p0..p%d, missing %s", len(addrs)-1, platform.ValidatorID(i))
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("-node-id %q is not one of p0..p%d", self, len(addrs)-1)
	}
	listen := o.listen
	if listen == "" {
		listen = addrs[self]
	}
	peers := make(map[transport.NodeID]string, len(addrs)-1)
	var peerIDs []transport.NodeID
	for id, addr := range addrs {
		if id == self {
			continue
		}
		peers[id] = addr
		peerIDs = append(peerIDs, id)
	}
	sort.Slice(peerIDs, func(i, j int) bool { return peerIDs[i] < peerIDs[j] })

	tr, err := tcp.New(tcp.Config{
		NodeID:  self,
		Listen:  listen,
		Peers:   peers,
		Codec:   wire.Codec{},
		Metrics: transport.NewMetrics(p.Telemetry()),
	})
	if err != nil {
		return nil, err
	}
	tmo := consensus.DefaultTimeouts()
	tmo.Idle = o.blockInterval
	node := platform.AttachConsensus(p, self, kps[idx], set, tr, tmo)
	// Route consensus traffic to the node and relayed txs to the pool.
	mux := transport.NewMux()
	mux.Handle("consensus.", node.Handle)
	mux.Handle(wire.KindMempoolTx, func(m transport.Message) {
		if tx, ok := m.Payload.(*ledger.Tx); ok {
			_ = p.SubmitRelayed(tx)
		}
	})
	if err := tr.AddNode(self, mux.Dispatch); err != nil {
		tr.Close()
		return nil, err
	}
	// Relay every locally accepted tx to all peers; losses are fine
	// (the tx commits once any proposer has it).
	p.SetOnSubmit(func(tx *ledger.Tx) {
		for _, id := range peerIDs {
			_ = tr.Send(self, id, wire.KindMempoolTx, tx)
		}
	})
	if err := tr.Start(); err != nil {
		tr.Close()
		return nil, err
	}
	// Enter consensus from the transport's event loop at the recovered
	// chain height, so a restarted validator picks up where it left off.
	tr.After(self, 0, func() {
		node.StartAt(p.Chain().Height())
	})
	log.Printf("cluster mode: validator %s of %d, consensus on %s, idle block interval %s", self, len(addrs), tr.Addr(), o.blockInterval)
	return tr, nil
}

// parsePeers parses "p0=host:port,p1=host:port,..." into an address map.
func parsePeers(s string) (map[transport.NodeID]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("cluster mode needs -peers (id=host:port,...)")
	}
	addrs := make(map[transport.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=host:port", part)
		}
		if _, dup := addrs[transport.NodeID(id)]; dup {
			return nil, fmt.Errorf("-peers lists %s twice", id)
		}
		addrs[transport.NodeID(id)] = addr
	}
	return addrs, nil
}

// servePprof exposes the net/http/pprof handlers on their own mux and
// listener, so profiling never shares a port with the public API.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	log.Printf("pprof listening on %s", addr)
	if err := srv.ListenAndServe(); err != nil {
		log.Printf("pprof server: %v", err)
	}
}

// checkpointLoop periodically snapshots the node's derived state so the
// next restart replays only the WAL tail. Checkpoints that would not
// advance (no new blocks) are skipped. The loop exits when ctx is
// cancelled; the shutdown path writes its own final checkpoint.
func checkpointLoop(ctx context.Context, p *platform.Platform, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if p.Chain().Height() == p.CheckpointHeight() {
			continue
		}
		if err := p.WriteCheckpoint(); err != nil {
			log.Printf("checkpoint: %v", err)
			continue
		}
		log.Printf("checkpoint written at height %d", p.CheckpointHeight())
	}
}
