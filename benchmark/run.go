package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/supplychain"
)

// benchEnv is what every run of one invocation shares.
type benchEnv struct {
	root         string // checkout root
	buildDir     string // scratch inside the checkout (.bench_build)
	bin          string // built trustnewsd
	workers      int    // request slots = nproc
	buildSeconds float64
}

// result is what one run reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	metrics   map[string]float64
	opsHash   string
}

// trackedTx is an acked write whose commit time is looked up after the
// window: by transaction id, or by item id for ingested articles.
type trackedTx struct {
	txID   string
	itemID string
	due    time.Time
	ackAt  time.Time
}

// heightObs is the first time the driver saw the chain at a height.
type heightObs struct {
	height uint64
	at     time.Time
}

// closedClient is one closed-loop traffic source.
type closedClient struct {
	gen   *opGen
	think time.Duration
	wait  bool // hold while the uncommitted window is full
}

type runner struct {
	env     *benchEnv
	spec    workloadSpec
	in      *inputs
	window  time.Duration
	tr      *tracer // nil on the untraced run
	runDir  string
	cl      *cluster
	base    string // target node
	sched   *scheduler
	hc      *http.Client // main goroutine's own connection (set-up, checks)
	preload []*ledger.Tx

	userMu []sync.Mutex

	winStart, winEnd time.Time
	stopGen          atomic.Bool

	lat                          map[string]*samples
	slo                          sloCounter
	attempted, failed, completed atomic.Int64
	txSeq                        atomic.Int64
	probesOut                    atomic.Int64
	pollReqs                     atomic.Int64 // driver's own requests inside the window

	mu         sync.Mutex // guards the fields below
	tracked    []trackedTx
	heights    []heightObs
	onHeight   []func(*worker, time.Time) // probe polls waiting for the next block
	violations []string
	firstErr   error
	maxIdxLag  int
	maxIngestQ int

	mempoolDepth atomic.Int64
	win          txWindow

	// Window-edge observations, [0] at window start and [1] at its end.
	edgeAt     [2]time.Time
	edgeProm   [2][]series // per node
	edgeCPU    [2][]float64
	edgeDrvCPU [2]float64
	edgeBus    [2][]busSubscriber
	edgeIngest [2]ingestStats

	setups   []float64 // seconds each set-up took
	preloadS float64   // the last one's in-process preload part
	rttUs    float64
}

var latKinds = []string{"ack", "commit", "searchable", "search", "blob", "rank"}

func newRunner(env *benchEnv, spec workloadSpec, seed int64, seconds int, trace bool) (*runner, error) {
	in, err := makeInputs(seed, spec.users, spec.articles)
	if err != nil {
		return nil, err
	}
	r := &runner{
		env: env, spec: spec, in: in,
		window: time.Duration(seconds) * time.Second,
		hc:     newWorker(-1).hc,
		userMu: make([]sync.Mutex, len(in.users)),
		lat:    make(map[string]*samples),
		win:    txWindow{limit: int64(spec.txWindow)},
	}
	if trace {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d", spec.name, seed))
	}
	for _, k := range append([]string{"mempool_wait"}, latKinds...) {
		r.lat[k] = &samples{}
	}
	if r.preload, err = preloadTxs(in); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *runner) inWindow(due time.Time) bool {
	return !due.Before(r.winStart) && due.Before(r.winEnd)
}

// countPoll notes one request of the driver's own polling (height,
// probe search): work the daemons do that is no workload operation.
func (r *runner) countPoll() {
	if r.inWindow(time.Now()) {
		r.pollReqs.Add(1)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func (r *runner) violation(format string, a ...any) {
	r.mu.Lock()
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, a...))
	}
	r.mu.Unlock()
}

func (r *runner) noteErr(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

// waitReady polls a node's /v1/healthz every 2 ms until it answers.
func (r *runner) waitReady(nd *node) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if h, err := getHealthz(r.hc, nd.url("")); err == nil && h.Ready {
			return nil
		}
		if nd.exited() {
			return fmt.Errorf("node %d exited during start-up:\n%s", nd.idx, nd.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d not ready after 30s:\n%s", nd.idx, nd.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// setupOnce brings the workload's daemons to the state the traffic starts
// from, under dir, and returns how long that took: the in-process preload
// where the workload has one, then first spawn to every node ready, then
// the preload through the target's HTTP API where it does not.
func (r *runner) setupOnce(dir string) (secs float64, err error) {
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	var dataDirs []string
	if r.spec.inProcess {
		if err := preloadInProcess(data, r.in, r.preload); err != nil {
			return 0, fmt.Errorf("in-process preload: %w", err)
		}
		r.preloadS = time.Since(start).Seconds()
		dataDirs = []string{data}
	}
	if r.cl, err = spawnCluster(r.env.bin, dir, r.spec.nodes, r.spec.ingestWorkers, dataDirs); err != nil {
		return 0, err
	}
	r.base = r.cl.nodes[0].url("")
	for _, nd := range r.cl.nodes {
		if err := r.waitReady(nd); err != nil {
			return 0, err
		}
	}
	if !r.spec.inProcess {
		if err := preloadHTTP(r.base, r.in, r.preload, r.env.workers); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// setup sets up reps times, each from nothing, and keeps the last
// cluster for the traffic. setup_s is the median: the host's speed swings
// by a tenth within seconds (README.md), and one set-up samples one swing.
func (r *runner) setup(reps int) error {
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(r.runDir, fmt.Sprintf("setup%d", rep))
		secs, err := r.setupOnce(dir)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, secs)
		if rep < reps-1 {
			r.cl.kill()
			os.RemoveAll(dir)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Operations.
// ---------------------------------------------------------------------------

// finish records one finished check of an in-window operation.
func (r *runner) finish(kind string, due time.Time, err error) {
	ms := msSince(due)
	r.slo.observe(kind, ms, err != nil)
	if err == nil {
		r.lat[kind].add(ms)
	}
}

// execOp performs one generated operation; due is when it was scheduled.
// It reports whether the operation was a write whose ack was its commit.
func (r *runner) execOp(w *worker, o op, due time.Time) (committed bool) {
	counted := r.inWindow(due)
	if counted {
		r.attempted.Add(1)
	}
	start := time.Now()
	var kind string
	var err error
	switch o.kind {
	case opSearch:
		kind = "search"
		var hits []searchHit
		hits, err = searchFor(w.hc, r.base, o.q)
		if err == nil && len(hits) == 0 {
			err = fmt.Errorf("search %q returned no hit", o.q)
		}
	case opBlob:
		kind = "blob"
		a := r.in.articles[o.art]
		var raw []byte
		raw, err = call(w.hc, http.MethodGet, r.base+"/v1/blobs/"+a.cid, "", nil)
		if err == nil {
			if cid, cerr := blobstore.ComputeCID(raw, blobstore.DefaultChunkSize); cerr != nil || string(cid) != a.cid {
				r.violation("blob %s: bytes hash to %s", a.cid, cid)
			}
		}
	case opRank:
		kind = "rank"
		var rk struct {
			ItemID string  `json:"itemId"`
			Score  float64 `json:"score"`
		}
		id := r.in.articles[o.art].id
		err = getJSON(w.hc, r.base+"/v1/items/"+id+"/rank", &rk)
		if err == nil && (rk.ItemID != id || rk.Score < 0 || rk.Score > 1) {
			r.violation("rank of %s: item %q score %v outside [0,1]", id, rk.ItemID, rk.Score)
		}
	default:
		kind = "ack"
		committed, err = r.write(w, o, due, counted)
	}
	r.tr.record("client."+o.kind.String(), 0, start, time.Now())
	if err != nil {
		r.noteErr(fmt.Errorf("%s: %w", o.kind, err))
	}
	if !counted {
		return committed
	}
	r.finish(kind, due, err)
	if err != nil {
		r.failed.Add(1)
	} else {
		r.completed.Add(1)
	}
	return committed
}

// write sends a publish, relay, vote or ingest and, once acked, notes it
// for the commit lookup. committed is true when the ack was the commit.
func (r *runner) write(w *worker, o op, due time.Time, counted bool) (committed bool, err error) {
	if o.kind == opIngest {
		if err := postIngest(w.hc, r.base, string(o.topic), o.text); err != nil {
			return false, err
		}
		if counted {
			r.track(trackedTx{itemID: ingestItemID(o.text), due: due, ackAt: time.Now()})
		}
		return false, nil
	}
	var cid string
	if o.kind == opPublish {
		if cid, err = uploadBlob(w.hc, r.base, o.text); err != nil {
			return false, fmt.Errorf("upload body: %w", err)
		}
	}
	kind, payload, err := txPayload(r.in, o, cid)
	if err != nil {
		return false, err
	}
	u := r.in.users[o.user]
	r.userMu[o.user].Lock()
	tx, err := ledger.NewTx(u.kp, u.nonce, kind, payload)
	var rep submitReply
	if err == nil {
		rep, err = submitTx(w.hc, r.base, tx)
	}
	if err == nil {
		u.nonce++
		u.acked++
	} else if !errors.Is(err, errShed) {
		// Whether it landed is unknown: take the node's view of the nonce.
		var acc struct {
			Nonce uint64 `json:"nonce"`
		}
		if getJSON(w.hc, r.base+"/v1/accounts/"+u.addr, &acc) == nil {
			u.nonce = acc.Nonce
		}
	}
	r.userMu[o.user].Unlock()
	if err != nil {
		return false, err
	}
	ackAt := time.Now()
	r.win.ack()
	if rep.Committed {
		// Standalone node: the ack is the commit, receipt included.
		if !rep.OK {
			return true, fmt.Errorf("tx %s committed with failed receipt: %s", rep.TxID, rep.Err)
		}
		if counted {
			r.finish("commit", due, nil)
		}
		return true, nil
	}
	if counted && r.txSeq.Add(1)%int64(r.spec.trackEvery) == 0 {
		r.track(trackedTx{txID: rep.TxID, due: due, ackAt: ackAt})
	}
	return false, nil
}

// ingestItemID is the id the ingest pipeline publishes an article under:
// derived from the body as the pipeline extracts it.
func ingestItemID(text string) string {
	body, _ := ingest.Extract(text, 0)
	return ingest.ItemIDFor(body)
}

// txPayload builds the contract call of a write op; cid is the uploaded
// body's content id for a publish.
func txPayload(in *inputs, o op, cid string) (kind string, payload []byte, err error) {
	switch o.kind {
	case opPublish:
		payload, err = supplychain.PublishRefPayload(o.id, o.topic, cid, len(o.text), nil, "")
		return "news.publish", payload, err
	case opRelay:
		a := in.articles[o.art]
		payload, err = supplychain.PublishRefPayload(o.id, a.topic, a.cid, len(a.text), []string{a.id}, corpus.OpVerbatim)
		return "news.publish", payload, err
	case opVote:
		payload, err = ranking.VotePayload(in.articles[o.art].id, o.vote, 1)
		return "rank.vote", payload, err
	}
	return "", nil, fmt.Errorf("op %s is not a transaction", o.kind)
}

func (r *runner) track(t trackedTx) {
	r.mu.Lock()
	r.tracked = append(r.tracked, t)
	r.mu.Unlock()
}

// execProbe publishes (or ingests) a document carrying a unique token and
// then polls search every searchEvery until the token hits. Where the ack
// is not the commit, the polling starts once the height poll shows a block
// newer than the ack: until then the document cannot be in the index, and
// polling through the wait for the block made the driver's own searches
// the largest search stream the daemons served.
func (r *runner) execProbe(w *worker, o op, due time.Time) {
	counted := r.inWindow(due)
	wantID := o.id
	if o.kind == opIngest {
		wantID = ingestItemID(o.text)
	}
	committed := r.execOp(w, o, due)
	if !counted {
		return
	}
	r.attempted.Add(1)
	r.probesOut.Add(1)
	var poll func(w *worker, _ time.Time)
	poll = func(w *worker, _ time.Time) {
		hits, err := searchFor(w.hc, r.base, o.token)
		switch {
		case err == nil && len(hits) > 0:
			if hits[0].ID != wantID {
				r.violation("probe %s: search hit %s, want %s", o.token, hits[0].ID, wantID)
			}
			r.finish("searchable", due, nil)
			r.completed.Add(1)
		case msSince(due) > sloLimitMs["searchable"]+2000:
			r.finish("searchable", due, fmt.Errorf("never searchable"))
			r.failed.Add(1)
			r.noteErr(fmt.Errorf("probe %s not searchable after %.0f ms (last error %v)", o.token, msSince(due), err))
		default:
			r.sched.pollAt(time.Now().Add(searchEvery), poll)
			return
		}
		r.probesOut.Add(-1)
	}
	if committed {
		r.sched.pollAt(time.Now().Add(searchEvery), poll)
		return
	}
	r.mu.Lock()
	r.onHeight = append(r.onHeight, poll)
	r.mu.Unlock()
}

// pollHealth watches the target's height, mempool and indexer backlog.
func (r *runner) pollHealth(w *worker, due time.Time) {
	ackedBefore := r.win.ackedSoFar()
	r.countPoll()
	if h, err := getHealthz(w.hc, r.base); err == nil {
		now := time.Now()
		r.win.observe(ackedBefore, h.MempoolDepth)
		r.mempoolDepth.Store(int64(h.MempoolDepth))
		r.mu.Lock()
		if n := len(r.heights); n == 0 || h.Height > r.heights[n-1].height {
			r.heights = append(r.heights, heightObs{h.Height, now})
			for _, poll := range r.onHeight {
				r.sched.pollAt(now, poll)
			}
			r.onHeight = nil
		}
		if r.inWindow(now) {
			r.maxIdxLag = max(r.maxIdxLag, h.IndexerLagDocs)
			if h.IngestQueue != nil {
				r.maxIngestQ = max(r.maxIngestQ, *h.IngestQueue)
			}
		}
		r.mu.Unlock()
	}
	next := due.Add(healthEvery)
	if now := time.Now(); next.Before(now) {
		next = now.Add(healthEvery)
	}
	r.sched.pollAt(next, r.pollHealth)
}

// txWindow bounds the transactions that are acked but not yet committed.
// A writer reserves a slot before it sends; the slot is free again once
// the transaction is known committed. What is known is a lower bound: of
// the transactions acked before a health poll was sent, all but the
// target's mempool depth are in a block.
type txWindow struct {
	mu        sync.Mutex
	limit     int64
	acked     int64 // transactions acked so far
	inflight  int64 // reserved sends not yet answered
	committed int64 // lower bound on acked transactions committed
}

// tryReserve takes a slot if acked + in flight − committed is under limit.
func (w *txWindow) tryReserve() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.acked+w.inflight-w.committed >= w.limit {
		return false
	}
	w.inflight++
	return true
}

// release ends a reserved send, acked (counted by ack) or not.
func (w *txWindow) release() {
	w.mu.Lock()
	w.inflight--
	w.mu.Unlock()
}

func (w *txWindow) ack() {
	w.mu.Lock()
	w.acked++
	w.mu.Unlock()
}

func (w *txWindow) ackedSoFar() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.acked
}

// observe folds in a health poll: ackedBefore is ackedSoFar read before
// the poll was sent, depth the mempool depth it returned.
func (w *txWindow) observe(ackedBefore int64, depth int) {
	w.mu.Lock()
	w.committed = max(w.committed, ackedBefore-int64(depth))
	w.mu.Unlock()
}

// stepClosed runs a closed-loop client's next operation and chains the
// one after it.
func (r *runner) stepClosed(c *closedClient) {
	if r.stopGen.Load() {
		return
	}
	if c.wait && !r.win.tryReserve() {
		r.sched.pollAt(time.Now().Add(time.Millisecond), func(*worker, time.Time) { r.stepClosed(c) })
		return
	}
	o := c.gen.next()
	think := c.think
	if think > 0 {
		// Uniform on [0, 2·think): a fixed pause lets the reader's cycle lock
		// onto the writer's commit cycle and sample one phase of it.
		think = time.Duration(c.gen.rng.Int63n(int64(2 * think)))
	}
	r.sched.at(time.Now().Add(think), func(w *worker, due time.Time) {
		r.execOp(w, o, due)
		if c.wait {
			r.win.release()
		}
		r.stepClosed(c)
	})
}

// observeEdge scrapes counters and CPU clocks at a window edge.
func (r *runner) observeEdge(i int) func(w *worker, _ time.Time) {
	return func(w *worker, _ time.Time) {
		r.edgeAt[i] = time.Now()
		nodes := r.cl.nodes
		if r.tr == nil {
			nodes = nodes[:1] // the untraced run needs the target's commit counter only
		}
		for _, nd := range nodes {
			raw, err := call(w.hc, http.MethodGet, nd.url("/v1/metrics"), "", nil)
			if err != nil {
				r.noteErr(fmt.Errorf("scrape node %d: %w", nd.idx, err))
			}
			r.edgeProm[i] = append(r.edgeProm[i], parseProm(string(raw)))
		}
		for _, nd := range r.cl.nodes {
			cpu, _ := procCPU(nd.cmd.Process.Pid)
			r.edgeCPU[i] = append(r.edgeCPU[i], cpu)
		}
		r.edgeDrvCPU[i], _ = procCPU(os.Getpid())
		if i == 0 {
			// Peak memory is that of the measured window: forget the boot's.
			for _, nd := range r.cl.nodes {
				resetPeakRSS(nd.cmd.Process.Pid)
			}
		}
		if r.tr != nil {
			_ = getJSON(w.hc, r.base+"/v1/commitbus", &r.edgeBus[i])
			if r.spec.ingestWorkers > 0 {
				_ = getJSON(w.hc, r.base+"/v1/ingest", &r.edgeIngest[i])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Traffic.
// ---------------------------------------------------------------------------

// userStripe returns the user indexes congruent to k modulo n.
func userStripe(users, k, n int) []int {
	var out []int
	for i := k; i < users; i += n {
		out = append(out, i)
	}
	return out
}

// openSchedule generates the open-loop ops and probes of a run of the
// given length, in due order per source.
func openSchedule(spec workloadSpec, in *inputs, length time.Duration) (ops, probes []op) {
	all := userStripe(len(in.users), 0, 1)
	if spec.openRate > 0 {
		g := newOpGen(in, "o", 1, spec.openMix, all)
		interval := time.Duration(float64(time.Second) / spec.openRate)
		for off := time.Duration(0); off < length; off += interval {
			o := g.next()
			o.dueOff = off
			ops = append(ops, o)
		}
	}
	pg := newOpGen(in, "p", 2, nil, all)
	kind := opPublish
	if spec.probeIngest {
		kind = opIngest
	}
	// One probe per slot, at an offset inside it that steps by the golden
	// ratio from a seeded start: a fixed period would lock onto the daemons'
	// commit timers and sample one phase of them, while these offsets cover
	// every phase evenly, more evenly than random ones.
	const phi = 0.6180339887498949
	start := pg.rng.Float64()
	for k, slot := 0, time.Duration(0); slot < length; k, slot = k+1, slot+probeEvery {
		o := pg.probe(kind, k)
		_, frac := math.Modf(start + float64(k)*phi)
		o.dueOff = slot + time.Duration(frac*float64(probeEvery))
		probes = append(probes, o)
	}
	return ops, probes
}

// closedClients builds the closed-loop sources. Each writer signs with
// its own stripe of users, so nonce order needs no coordination.
func closedClients(spec workloadSpec, in *inputs, workers int) []*closedClient {
	var out []*closedClient
	nw := spec.writers
	if nw < 0 {
		nw = workers
	}
	for k := 0; k < nw; k++ {
		g := newOpGen(in, fmt.Sprintf("w%dx", k), int64(100+k), spec.writerMix, userStripe(len(in.users), k, nw))
		out = append(out, &closedClient{gen: g, wait: spec.txWindow > 0})
	}
	for k := 0; k < spec.readers; k++ {
		g := newOpGen(in, fmt.Sprintf("r%dx", k), int64(200+k), spec.readerMix, nil)
		out = append(out, &closedClient{gen: g, think: spec.think})
	}
	return out
}

// traffic runs warm-up, the measured window and the drain.
func (r *runner) traffic() (opsHash string, err error) {
	length := warmup + r.window
	ops, probes := openSchedule(r.spec, r.in, length)
	opsHash = hashOps(append(append([]op(nil), ops...), probes...))

	r.sched = newScheduler(r.env.workers)
	r.sched.onDrop = func() {
		r.attempted.Add(1)
		r.failed.Add(1)
		r.slo.observe("ack", 0, true)
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	r.winStart = t0.Add(warmup)
	r.winEnd = r.winStart.Add(r.window)

	r.sched.pollAt(t0, r.pollHealth)
	r.sched.pollAt(r.winStart, r.observeEdge(0))
	r.sched.pollAt(r.winEnd, r.observeEdge(1))
	for _, o := range ops {
		r.sched.at(t0.Add(o.dueOff), func(w *worker, due time.Time) { r.execOp(w, o, due) })
	}
	for _, o := range probes {
		r.sched.at(t0.Add(o.dueOff), func(w *worker, due time.Time) { r.execProbe(w, o, due) })
	}
	for _, c := range closedClients(r.spec, r.in, r.env.workers) {
		r.sched.pollAt(t0, func(*worker, time.Time) { r.stepClosed(c) })
	}

	for time.Now().Before(r.winEnd) {
		time.Sleep(20 * time.Millisecond)
		if nd := r.cl.firstExited(); nd != nil {
			r.sched.close()
			return opsHash, fmt.Errorf("node %d exited during the run:\n%s", nd.idx, nd.logTail())
		}
	}
	r.stopGen.Store(true)
	drainEnd := r.winEnd.Add(maxDrain)
	for time.Now().Before(drainEnd) {
		if r.sched.idle() && r.probesOut.Load() == 0 && r.mempoolDepth.Load() == 0 && r.ingestSettled() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// One more poll interval so the height that emptied the mempool is seen.
	time.Sleep(2 * healthEvery)
	r.sched.close()
	// A probe still unanswered when the drain ends never became searchable.
	for n := r.probesOut.Load(); n > 0; n-- {
		r.slo.observe("searchable", 0, true)
		r.failed.Add(1)
		r.noteErr(errors.New("a probe was not searchable by the end of the drain"))
	}
	if r.edgeAt[1].IsZero() {
		return opsHash, errors.New("window-end observation did not run")
	}
	return opsHash, nil
}

// ingestSettled reports whether the ingest pipeline has nothing queued or
// awaiting a commit (always true without a pipeline).
func (r *runner) ingestSettled() bool {
	if r.spec.ingestWorkers == 0 {
		return true
	}
	var st ingestStats
	if err := getJSON(r.hc, r.base+"/v1/ingest", &st); err != nil {
		return false
	}
	return st.Queue.Depth == 0 && st.Queue.Inflight == 0 && st.AwaitingCommit == 0
}

// ---------------------------------------------------------------------------
// After the window: commit lookup and output checks.
// ---------------------------------------------------------------------------

// seenAt returns when the driver first saw the chain at or above height.
func (r *runner) seenAt(height uint64) (time.Time, bool) {
	i := sort.Search(len(r.heights), func(i int) bool { return r.heights[i].height >= height })
	if i == len(r.heights) {
		return time.Time{}, false
	}
	return r.heights[i].at, true
}

// resolveCommits finds the block of every tracked write and times its
// commit as the first height poll that showed that block.
func (r *runner) resolveCommits() {
	for _, t := range r.tracked {
		var blockHeight uint64
		var err error
		if t.txID != "" {
			var p struct {
				Header struct {
					Height uint64 `json:"height"`
				} `json:"header"`
			}
			err = getJSON(r.hc, r.base+"/v1/proofs/"+t.txID, &p)
			blockHeight = p.Header.Height
		} else {
			var it struct {
				Height uint64 `json:"height"`
			}
			err = getJSON(r.hc, r.base+"/v1/items/"+t.itemID, &it)
			blockHeight = it.Height
		}
		// The chain shows block h once its height reads h+1.
		at, seen := r.seenAt(blockHeight + 1)
		if err != nil || !seen {
			// A lost transaction is counted as failed by checkOutputs' nonce
			// check; a lost ingest fails the run there.
			r.slo.observe("commit", 0, true)
			r.noteErr(fmt.Errorf("acked write %s%s not found committed: %v", t.txID, t.itemID, err))
			continue
		}
		ms := float64(at.Sub(t.due)) / float64(time.Millisecond)
		r.slo.observe("commit", ms, false)
		r.lat["commit"].add(ms)
		r.lat["mempool_wait"].add(float64(at.Sub(t.ackAt)) / float64(time.Millisecond))
	}
}

// checkOutputs verifies what the daemons hold against what was acked. It
// returns the number of acked transactions that never committed.
func (r *runner) checkOutputs() (lost uint64, err error) {
	if nd := r.cl.firstExited(); nd != nil {
		return 0, fmt.Errorf("node %d exited early:\n%s", nd.idx, nd.logTail())
	}
	var acked uint64
	for _, u := range r.in.users {
		acked += u.acked
		if u.acked == 0 {
			continue
		}
		var acc struct {
			Nonce uint64 `json:"nonce"`
		}
		if err := getJSON(r.hc, r.base+"/v1/accounts/"+u.addr, &acc); err != nil {
			return 0, fmt.Errorf("account %s: %w", u.addr[:8], err)
		}
		switch {
		case acc.Nonce < u.nonce:
			lost += u.nonce - acc.Nonce
		case acc.Nonce > u.nonce:
			return 0, fmt.Errorf("account %s committed nonce %d beyond the %d acked: a transaction committed twice or unacked", u.addr[:8], acc.Nonce, u.nonce)
		}
	}
	if float64(lost) > 0.001*float64(acked) {
		return lost, fmt.Errorf("%d of %d acked transactions never committed", lost, acked)
	}
	if r.spec.ingestWorkers > 0 {
		var st ingestStats
		if err := getJSON(r.hc, r.base+"/v1/ingest", &st); err != nil {
			return lost, err
		}
		if st.Queue.Dead > 0 || st.Failed > 0 {
			return lost, fmt.Errorf("ingest pipeline: %d dead, %d failed attempts", st.Queue.Dead, st.Failed)
		}
	}
	if len(r.cl.nodes) > 1 {
		if err := r.checkAgreement(); err != nil {
			return lost, err
		}
	}
	if len(r.violations) > 0 {
		return lost, fmt.Errorf("output checks failed: %v", r.violations)
	}
	return lost, nil
}

// checkAgreement compares block ids across nodes at the lowest common
// height.
func (r *runner) checkAgreement() error {
	low := ^uint64(0)
	for _, nd := range r.cl.nodes {
		h, err := getHealthz(r.hc, nd.url(""))
		if err != nil {
			return fmt.Errorf("node %d: %w", nd.idx, err)
		}
		low = min(low, h.Height)
	}
	if low == 0 {
		return errors.New("a node holds no block")
	}
	var want string
	for _, nd := range r.cl.nodes {
		var b struct {
			ID string `json:"id"`
		}
		if err := getJSON(r.hc, nd.url(fmt.Sprintf("/v1/blocks/%d", low-1)), &b); err != nil {
			return fmt.Errorf("node %d block %d: %w", nd.idx, low-1, err)
		}
		if want == "" {
			want = b.ID
		} else if b.ID != want {
			return fmt.Errorf("fork: node %d holds block %s at height %d, node 0 holds %s", nd.idx, b.ID, low-1, want)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

// runWorkload performs one run and returns its metrics: the end-to-end
// set without tracing, the per-layer set with it.
func runWorkload(env *benchEnv, spec workloadSpec, seed int64, seconds int, trace bool) (res *result, err error) {
	genStart := time.Now()
	r, err := newRunner(env, spec, seed, seconds, trace)
	if err != nil {
		return nil, err
	}
	r.runDir, err = os.MkdirTemp(filepath.Join(env.buildDir, "runs"), spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		r.cl.kill()
		r.hc.CloseIdleConnections()
		if err == nil {
			os.RemoveAll(r.runDir)
		} else {
			fmt.Fprintf(os.Stderr, "benchmark: run failed; daemon logs kept in %s\n", r.runDir)
		}
	}()
	genS := time.Since(genStart).Seconds()
	watchdog := time.AfterFunc(150*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its 150 s watchdog; killing daemons (logs in %s)\n", spec.name, r.runDir)
		killAllAndExit(3)
	})
	defer watchdog.Stop()

	reps := setupReps
	if trace {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	if err := r.setup(reps); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if trace {
		r.rttUs = r.healthzRTT()
	}
	trafficStart := time.Now()
	opsHash, err := r.traffic()
	if err != nil {
		return nil, err
	}
	checkStart := time.Now()
	r.resolveCommits()
	lost, err := r.checkOutputs()
	if err != nil {
		if r.firstErr != nil {
			err = fmt.Errorf("%w (first operation error: %v)", err, r.firstErr)
		}
		return nil, err
	}
	rss := make([]float64, len(r.cl.nodes))
	for i, nd := range r.cl.nodes {
		rss[i], _ = procPeakRSSMB(nd.cmd.Process.Pid)
	}
	r.cl.kill()
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: inputs %.2fs, set-ups %.2fs (last in-process preload %.2fs), traffic %.2fs (drain %.2fs), checks %.2fs\n",
		spec.name, seed, genS, sumOf(r.setups), r.preloadS, checkStart.Sub(trafficStart).Seconds(),
		checkStart.Sub(r.winEnd).Seconds(), time.Since(checkStart).Seconds())
	for _, k := range latKinds {
		if s := r.lat[k].sorted(); len(s) > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %-10s n %5d  p10 %8.3f  p25 %8.3f  p50 %8.3f  p75 %8.3f  p90 %8.3f ms\n", spec.name, k, len(s),
				percentile(s, 10), percentile(s, 25), percentile(s, 50), percentile(s, 75), percentile(s, 90))
		}
	}
	if len(r.slo.misses) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first latency-limit misses: %v\n", spec.name, r.slo.misses)
	}

	res = &result{workload: spec.name, opsHash: opsHash, metrics: make(map[string]float64)}
	res.attempted = r.attempted.Load()
	res.failed = r.failed.Load() + int64(lost)
	if r.firstErr != nil && res.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed; first error: %v\n", spec.name, res.failed, res.attempted, r.firstErr)
	}
	if err := r.windowMetrics(res.metrics, rss); err != nil {
		return nil, err
	}
	if trace {
		if err := r.layerMetrics(res.metrics, rss); err != nil {
			return nil, err
		}
		path := filepath.Join(env.buildDir, "trace_"+spec.name+".json")
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// nodeCPU returns the CPU seconds each node used inside the window.
func (r *runner) nodeCPU() []float64 {
	out := make([]float64, len(r.edgeCPU[1]))
	for i := range out {
		out[i] = r.edgeCPU[1][i] - r.edgeCPU[0][i]
	}
	return out
}

func sumOf(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// committedInWindow is the growth of the target's committed-tx counter
// between the two window-edge scrapes.
func (r *runner) committedInWindow() float64 {
	const fam = "trustnews_platform_txs_committed_total"
	return r.edgeProm[1][0].sum(fam) - r.edgeProm[0][0].sum(fam)
}

// p50Name is the metric a latency kind's median is reported as: an
// end-to-end metric where it repeats within its bound, else a client row.
func p50Name(kind string) string {
	name := kind + "_p50_ms"
	for _, d := range endToEnd {
		if d.name == name {
			return name
		}
	}
	return "client." + name
}

// windowMetrics fills m with what every run measures in the window: the
// end-to-end metrics, and the cells of spec.go's unresolved list.
func (r *runner) windowMetrics(m map[string]float64, rss []float64) error {
	m["setup_s"] = median(r.setups)
	elapsed := r.edgeAt[1].Sub(r.edgeAt[0]).Seconds()
	m["commit_tps"] = r.committedInWindow() / elapsed
	for _, k := range latKinds {
		name := p50Name(k)
		s := r.lat[k].sorted()
		switch {
		case len(s) > 0:
			m[name] = percentile(s, 50)
		case name == "client."+k+"_p50_ms":
			m[name] = 0 // the workload issues no such operation
		default:
			return fmt.Errorf("no %s sample in the window (first operation error: %v)", k, r.firstErr)
		}
	}
	m["slo_ok_share"] = r.slo.share()
	done := r.completed.Load()
	if done <= 0 {
		return errors.New("no operation completed in the window")
	}
	m["node.cpu_ms_per_op"] = sumOf(r.nodeCPU()) * 1000 / float64(done)
	m["rss_peak_mb"] = sumOf(rss)
	return nil
}
