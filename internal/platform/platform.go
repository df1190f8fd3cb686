// Package platform assembles the AI blockchain trusting-news platform —
// contribution (4) of the paper and the system of Fig. 1. It wires the
// smart contracts (identity, factdb, news, rank, newsroom, media) into one
// contract engine over a validated chain, attaches the AI components, and
// gives the mechanisms their two views of the ledger: the factual database
// similarity index, rebuilt incrementally from contract events as blocks
// commit, and the news supply-chain graph, read from contract state.
//
// A Platform can run standalone (it mines its own blocks, which is what
// the examples and most experiments use) or as the application under BFT
// consensus (see internal/consensus.ChainApp).
package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/aidetect"
	"repro/internal/blobstore"
	"repro/internal/consensus"
	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/factdb"
	"repro/internal/identity"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/newsroom"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// Errors returned by this package.
var (
	// ErrTxFailed indicates a transaction whose receipt is not OK.
	ErrTxFailed = errors.New("platform: transaction failed")
	// ErrNotTrained indicates ranking before TrainClassifier.
	ErrNotTrained = errors.New("platform: AI classifier not trained")
	// ErrReplicated indicates a standalone commit on a node whose blocks
	// are decided by consensus (AttachConsensus, Cluster replicas).
	ErrReplicated = errors.New("platform: standalone commit disabled under consensus")
)

// Config tunes a platform node.
type Config struct {
	// AuthoritySeed derives the platform authority key.
	AuthoritySeed string
	// PromoteThreshold gates factual-database promotion (default 0.9).
	PromoteThreshold float64
	// MaxTxsPerBlock bounds block size (default 512).
	MaxTxsPerBlock int
	// MempoolCapacity bounds the pending-transaction pool. Zero derives a
	// default scaled to MaxTxsPerBlock (at least 128 blocks' worth, never
	// below 65536).
	MempoolCapacity int
	// Weights tunes the combined ranking mechanism.
	Weights ranking.Weights
	// BlobDir, when non-empty, backs the blob store with files under this
	// directory. Open derives it from the node's data directory.
	BlobDir string
	// Telemetry, when non-nil, instruments the node's hot paths (mempool,
	// blob store, commits) on the given registry and enables
	// span tracing. Nil — the default — keeps every instrument a no-op, so
	// library users pay nothing.
	Telemetry *telemetry.Registry
	// Admission, when non-nil, enables platform-wide admission control:
	// Submit passes through a bounded-concurrency gate with CoDel-style
	// queue-delay shedding, and blob reads at the API edge are gated the
	// same way. Shed requests fail fast with admission.ErrOverCapacity
	// (HTTP 429) instead of queueing without bound. Nil — the default —
	// admits everything, so existing callers are unaffected.
	Admission *admission.Config
}

// defaultMempoolCapacity scales the pending pool to the block size: room
// for at least 128 full blocks, never below the historical 1<<16 floor.
func defaultMempoolCapacity(maxTxsPerBlock int) int {
	capacity := 128 * maxTxsPerBlock
	if capacity < 1<<16 {
		capacity = 1 << 16
	}
	return capacity
}

// creatorReward is minted to an item's creator when it resolves factual
// (Fig. 2's incentive for content creators).
const creatorReward = 25

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{
		AuthoritySeed:    "platform-authority",
		PromoteThreshold: 0.9,
		MaxTxsPerBlock:   512,
		Weights:          ranking.DefaultWeights(),
	}
}

// Platform is one trusting-news node.
type Platform struct {
	mu sync.Mutex
	// commitMu serialises commits through the end of commitDecided — a
	// standalone Commit from its batch, so two never build on the same
	// head, and a validator's decided block — and WriteCheckpoint, which
	// takes it before mu and so never sees a block appended but not yet
	// executed.
	commitMu sync.Mutex

	cfg       Config
	engine    *contract.Engine
	chain     *ledger.Chain
	pool      *ledger.Mempool
	authority *keys.KeyPair

	factIndex  *factdb.Index
	graph      *supplychain.Graph
	classifier aidetect.TextClassifier
	mediaDet   *aidetect.MediaDetector
	// blobs holds article bodies off-chain, keyed by content id; the chain
	// carries only CIDs (plus legacy inline bodies).
	blobs *blobstore.Store
	// searchIdx is the full-text index over committed article bodies.
	searchIdx *search.Index
	// indexer is the async indexer keeping searchIdx in sync with the
	// chain; queries may lag the head by its backlog (see FlushSearch).
	indexer *search.Indexer

	// receipts holds the encoded receipts of block h as record h (see
	// receipts.go): a file beside the chain log on a durable node, encoded
	// bytes in memory otherwise.
	receipts receiptLog
	// dir is the durable data directory ("" for in-memory nodes).
	dir string
	// ckptHeight is the height covered by the last written or restored
	// checkpoint (0 if none).
	ckptHeight uint64
	// authNonce tracks authority txs pending beyond the committed nonce.
	authNonce uint64
	// replicated marks a platform driven by external consensus; standalone
	// mining is disabled to prevent forking away from the agreed chain.
	replicated bool
	// onSubmit, when set, observes every transaction Submit accepts into
	// the mempool (cluster mode relays them to peer validators). Submit
	// reads it without p.mu, so it never queues behind a running commit.
	onSubmit atomic.Pointer[func(*ledger.Tx)]
	// wake holds at most one pending "the mempool has work" signal for
	// RunCommitter: senders never block, and signals raised while a
	// commit is running collapse into one.
	wake chan struct{}
	// committed is closed, then replaced, at the end of every
	// commitDecided, under p.mu and after the block's receipts are
	// recorded (see Committed).
	committed atomic.Pointer[chan struct{}]
	// validator is the consensus node AttachConsensus made of this
	// platform (nil standalone): every admitted transaction tells it that
	// there may be work, so a resting validator enters its next height.
	validator atomic.Pointer[consensus.Node]
	// clock supplies block timestamps (fixed epoch by default for
	// reproducibility; override with SetClock).
	clock func() time.Time
	// admit is the node's admission controller (nil without
	// Config.Admission; every method is nil-safe and admits).
	admit *admission.Controller
	// tm holds the node's cached commit-path instrument handles (nil
	// without Config.Telemetry; all methods are nil-safe).
	tm platformMetrics
	// tracer records commit spans (nil without Config.Telemetry).
	tracer *telemetry.Tracer
	// boot is how long the node took to start (see Boot).
	boot BootTimes
}

// platformMetrics instruments the platform-level commit path.
type platformMetrics struct {
	commits   *telemetry.Counter
	txs       *telemetry.Counter
	commitSec *telemetry.Histogram
	// receiptErrs counts blocks whose receipts did not reach the receipt log.
	receiptErrs *telemetry.Counter
	// viewErrs counts, once per view, blocks a view (fact index, search
	// index) could not fully apply (see updateViewsLocked).
	viewErrs *telemetry.Counter
	// stageSec splits commitSec by stage (trustnews_commit_stage_seconds),
	// indexed by commitStage.
	stageSec [numCommitStages]*telemetry.Histogram
	// stageCPU is the thread CPU each stage burned
	// (trustnews_commit_stage_cpu_seconds_total), indexed like stageSec.
	stageCPU [numCommitStages]*telemetry.CPUCounter
	// txIndexMemory and txIndexSealed count the chain's transaction-index
	// entries in the in-memory tail and in sealed segments.
	txIndexMemory, txIndexSealed *telemetry.Gauge
	// txIndexReadErrs counts Receipt lookups whose index page could not be
	// read (answered "not found").
	txIndexReadErrs *telemetry.Counter
	// stateMemory and stateSealed count the contract state's entries in the
	// memtable and in sealed segments; stateLogBytes is state.log's size.
	stateMemory, stateSealed, stateLogBytes *telemetry.Gauge
	// boot is trustnews_boot_seconds, set once per phase (BootTimes).
	boot *telemetry.GaugeVec
}

// commitStage names one step of the commit path. Each runs under a child
// span of the commit and its own trustnews_commit_stage_seconds and
// trustnews_commit_stage_cpu_seconds_total series, so the node itself
// reports where a block's time and CPU went.
type commitStage int

const (
	stageExecute commitStage = iota
	stageStateRoot
	stageAppend
	stageTxIndex
	stageReceipts
	stagePublish
	numCommitStages
)

// commitStages gives each stage its metric label and span name.
var commitStages = [numCommitStages]struct{ label, span string }{
	stageExecute:   {"execute", "engine.execute"},
	stageStateRoot: {"state_root", "engine.state_root"},
	stageAppend:    {"append", "chain.append"},
	stageTxIndex:   {"txindex", "txindex.seal"},
	stageReceipts:  {"receipts", "receipts.append"},
	stagePublish:   {"publish", "views.update"},
}

// New creates an in-memory platform node with all contracts registered.
func New(cfg Config) (*Platform, error) {
	return assemble(cfg, "", ledger.NewMemChain(), store.NewMemLog(), store.NewMemLog())
}

// assemble builds a node around the chain, receipt log and state log it is
// given: in-memory ones from New, file-backed ones from Open (dir is then
// the node's data directory).
func assemble(cfg Config, dir string, chain *ledger.Chain, receipts receiptLog, state store.SegmentLog) (*Platform, error) {
	if cfg.AuthoritySeed == "" {
		cfg.AuthoritySeed = "platform-authority"
	}
	if cfg.PromoteThreshold == 0 {
		cfg.PromoteThreshold = 0.9
	}
	if cfg.MaxTxsPerBlock == 0 {
		cfg.MaxTxsPerBlock = 512
	}
	if cfg.Weights == (ranking.Weights{}) {
		cfg.Weights = ranking.DefaultWeights()
	}
	if cfg.MempoolCapacity == 0 {
		cfg.MempoolCapacity = defaultMempoolCapacity(cfg.MaxTxsPerBlock)
	}
	p := &Platform{
		cfg:       cfg,
		engine:    contract.NewEngineOn(state),
		chain:     chain,
		pool:      ledger.NewMempool(chain, cfg.MempoolCapacity),
		authority: keys.FromSeed([]byte(cfg.AuthoritySeed)),
		factIndex: factdb.NewIndex(),
		mediaDet:  aidetect.NewMediaDetector(),
		receipts:  receipts,
		searchIdx: search.New(),
		dir:       dir,
		clock:     func() time.Time { return time.Unix(1562500000, 0).UTC() },
		wake:      make(chan struct{}, 1),
	}
	admit, err := admission.NewController(cfg.Admission, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	p.admit = admit
	committed := make(chan struct{})
	p.committed.Store(&committed)
	if cfg.BlobDir != "" {
		blobs, err := blobstore.Open(cfg.BlobDir, blobstore.DefaultChunkSize)
		if err != nil {
			return nil, fmt.Errorf("platform: open blob store: %w", err)
		}
		p.blobs = blobs
	} else {
		p.blobs = blobstore.NewStore(blobstore.DefaultChunkSize)
	}
	// Wire telemetry before any traffic. A nil registry yields nil
	// instruments everywhere, so the uninstrumented cost is one branch.
	chain.Verifier().Instrument(cfg.Telemetry)
	p.pool.Instrument(cfg.Telemetry)
	p.blobs.Instrument(cfg.Telemetry)
	p.tracer = cfg.Telemetry.Tracer()
	p.tm = platformMetrics{
		commits:     cfg.Telemetry.Counter("trustnews_platform_commits_total", "Blocks committed by this node (standalone or replicated)."),
		txs:         cfg.Telemetry.Counter("trustnews_platform_txs_committed_total", "Transactions inside committed blocks."),
		commitSec:   cfg.Telemetry.Histogram("trustnews_platform_commit_seconds", "Wall time to execute, append and index one block.", nil),
		receiptErrs: cfg.Telemetry.Counter("trustnews_platform_receipt_errors_total", "Committed blocks whose receipts could not be appended to the receipt log (not found until a restart replays them)."),
		viewErrs:    cfg.Telemetry.Counter("trustnews_platform_view_errors_total", "Committed blocks a view (fact index, search index) could not fully apply, once per view: a receipt result did not decode. The block stays committed."),
	}
	stageSec := cfg.Telemetry.HistogramVec("trustnews_commit_stage_seconds", "Wall time of one commit-path stage of one block.", nil, "stage")
	stageCPU := cfg.Telemetry.CPUCounterVec("trustnews_commit_stage_cpu_seconds_total", "CPU time the committing thread spent in one commit-path stage, summed over blocks.", "stage")
	for st, names := range commitStages {
		p.tm.stageSec[st] = stageSec.With(names.label)
		p.tm.stageCPU[st] = stageCPU.With(names.label)
	}
	cfg.Telemetry.CPUFunc("trustnews_process_cpu_seconds_total", "User plus system CPU time of this node's process (getrusage).", telemetry.ProcessCPU)
	txIndexEntries := cfg.Telemetry.GaugeVec("trustnews_ledger_txindex_entries", "Transaction-index entries, by where they are held: the in-memory tail or sealed segments of txindex.log.", "where")
	p.tm.txIndexMemory, p.tm.txIndexSealed = txIndexEntries.With("memory"), txIndexEntries.With("sealed")
	p.tm.txIndexReadErrs = cfg.Telemetry.Counter("trustnews_ledger_txindex_read_errors_total", "Receipt lookups whose txindex.log page could not be read, answered not found.")
	stateEntries := cfg.Telemetry.GaugeVec("trustnews_contract_state_entries", "Contract-state entries, by where they are held: the in-memory memtable or sealed segments of state.log (overridden entries and tombstones included).", "where")
	p.tm.stateMemory, p.tm.stateSealed = stateEntries.With("memory"), stateEntries.With("sealed")
	p.tm.boot = cfg.Telemetry.GaugeVec("trustnews_boot_seconds", "Time this node took to start, by phase: open (all of platform.Open), restore (the checkpoint, used or not), replay (executing blocks above it, or all of them), train (the AI classifier).", "phase")
	p.tm.stateLogBytes = cfg.Telemetry.Gauge("trustnews_contract_state_log_bytes", "Size of the contract-state log, records merges left dead included.")
	chain.Instrument(cfg.Telemetry)
	p.engine.InstrumentState(cfg.Telemetry)
	p.setStoreGauges()
	p.graph = supplychain.NewGraph(supplychain.StateSource(p.engine), p.factIndex)
	p.graph.Resolve = p.resolveBody
	p.graph.Instrument(cfg.Telemetry)
	p.indexer = search.NewIndexer(p.searchIdx, p.resolveBody)
	p.indexer.Instrument(cfg.Telemetry)

	auth := p.authority.Address()
	contracts := []contract.Contract{
		&identity.Contract{Genesis: auth},
		&factdb.Contract{Genesis: auth, RankAuthority: auth, PromoteThreshold: cfg.PromoteThreshold},
		supplychain.Contract{},
		&ranking.Contract{Authority: auth},
		newsroom.Contract{},
		&MediaContract{},
		evidence.Contract{},
	}
	for _, c := range contracts {
		if err := p.engine.Register(c); err != nil {
			return nil, fmt.Errorf("platform: register %s: %w", c.Name(), err)
		}
	}
	return p, nil
}

// Authority returns the platform authority address (genesis for the
// identity registry, fact authority, ranking resolver).
func (p *Platform) Authority() keys.Address { return p.authority.Address() }

// Engine exposes the contract engine for read-only queries.
func (p *Platform) Engine() *contract.Engine { return p.engine }

// Chain exposes the underlying chain.
func (p *Platform) Chain() *ledger.Chain { return p.chain }

// Verifier exposes the node's block-verification pipeline: the chain's
// GOMAXPROCS worker pool over a bounded signature cache, shared by mempool
// admission, chain append, consensus proposal validation and replay.
func (p *Platform) Verifier() *ledger.Verifier { return p.chain.Verifier() }

// Graph exposes the news supply-chain graph.
func (p *Platform) Graph() *supplychain.Graph { return p.graph }

// FactIndex exposes the factual-database similarity index.
func (p *Platform) FactIndex() *factdb.Index { return p.factIndex }

// Blobs exposes the off-chain article body store.
func (p *Platform) Blobs() *blobstore.Store { return p.blobs }

// Search returns the top-k committed articles matching the query,
// BM25-ranked. Indexing is asynchronous: results may lag the chain head
// by the indexer backlog (SearchIndexerStats reports it; FlushSearch
// waits it out).
func (p *Platform) Search(q string, k int) []search.Result { return p.searchIdx.Query(q, k) }

// SearchPage runs a BM25-ranked, paginated query (the /v1/search path).
// ranker names the scoring function; search.RankBM25 is the only one.
func (p *Platform) SearchPage(q string, ranker search.Ranker, offset, limit int) search.Page {
	return p.searchIdx.QueryPage(q, offset, limit)
}

// FlushSearch blocks until the async indexer has applied every
// committed document. Tests and read-your-writes callers use it;
// serving paths should not (the whole point is that they never wait).
func (p *Platform) FlushSearch() { p.indexer.Flush() }

// SearchIndexerStats reports the async indexer's backlog and error
// accounting (the /v1/healthz indexer-lag field).
func (p *Platform) SearchIndexerStats() search.IndexerStats { return p.indexer.Stats() }

// resolveBody fetches an off-chain article body by content id. It backs
// the search indexer's hydration, the graph's trace reads and every
// read path that needs the text behind a CID-only item.
func (p *Platform) resolveBody(cid string) (string, error) {
	c, err := blobstore.ParseCID(cid)
	if err != nil {
		return "", err
	}
	return p.blobs.GetString(c)
}

// hydrateItem fills in an off-chain body so callers can treat Text as
// always present. A body this node cannot read is ErrBodyUnavailable, as
// it is to a trace.
func (p *Platform) hydrateItem(it *supplychain.Item) error {
	if it.Text != "" || it.CID == "" {
		return nil
	}
	text, err := p.resolveBody(it.CID)
	if err != nil {
		return fmt.Errorf("%w: item %s: %v", supplychain.ErrBodyUnavailable, it.ID, err)
	}
	it.Text = text
	return nil
}

// Item returns a committed news item with its body hydrated.
func (p *Platform) Item(id string) (supplychain.Item, error) {
	it, err := supplychain.GetItem(p.engine, p.authority.Address(), id)
	if err != nil {
		return supplychain.Item{}, err
	}
	if err := p.hydrateItem(&it); err != nil {
		return supplychain.Item{}, err
	}
	return it, nil
}

// SetClock overrides the block timestamp source.
func (p *Platform) SetClock(now func() time.Time) { p.clock = now }

// Telemetry returns the node's metrics registry (nil when the node was
// built without Config.Telemetry).
func (p *Platform) Telemetry() *telemetry.Registry { return p.cfg.Telemetry }

// Admission returns the node's admission controller (nil when the node
// was built without Config.Admission — every method on it still admits).
func (p *Platform) Admission() *admission.Controller { return p.admit }

// MempoolSize reports the number of pending transactions (the /v1/healthz
// mempool-depth field).
func (p *Platform) MempoolSize() int { return p.pool.Size() }

// ConsensusAttached reports whether the platform runs replicated under
// external consensus (AttachConsensus was called) rather than mining its
// own blocks.
func (p *Platform) ConsensusAttached() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicated
}

// CheckpointHeight returns the chain height covered by the last written
// or restored checkpoint (0 if the node never checkpointed).
func (p *Platform) CheckpointHeight() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ckptHeight
}

// TrainClassifier fits the AI text component on labelled statements; its
// time is the boot phase "train".
func (p *Platform) TrainClassifier(c aidetect.TextClassifier, train []corpus.Statement) error {
	start := time.Now()
	if err := c.Train(train); err != nil {
		return fmt.Errorf("platform: train classifier: %w", err)
	}
	took := time.Since(start)
	p.tm.boot.With("train").Set(took.Seconds())
	p.mu.Lock()
	p.classifier = c
	p.boot.Train = took
	p.mu.Unlock()
	return nil
}

// Submit verifies and enqueues a signed transaction. In cluster mode the
// accepted transaction is also handed to the relay hook (SetOnSubmit) so
// peer validators learn about it before their next proposal; standalone,
// a running RunCommitter is woken to put it in a block.
//
// With Config.Admission set, Submit first passes the mempool admission
// gate: concurrent signature verifications are bounded, a short queue
// absorbs bursts, and once queue delay indicates sustained overload the
// gate sheds with admission.ErrOverCapacity before any verification
// work is spent — the transaction was never admitted and its nonce is
// safe to reuse.
func (p *Platform) Submit(tx *ledger.Tx) error {
	if err := p.admit.AcquireMempool(); err != nil {
		return err
	}
	defer p.admit.ReleaseMempool()
	if err := p.pool.Add(tx); err != nil {
		return err
	}
	p.workArrived()
	if relay := p.onSubmit.Load(); relay != nil {
		(*relay)(tx)
	}
	return nil
}

// workArrived signals whoever commits this platform's mempool: the
// standalone committer, or the validator under consensus.
func (p *Platform) workArrived() {
	if v := p.validator.Load(); v != nil {
		v.WorkArrived()
		return
	}
	select {
	case p.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// RunCommitter commits whatever Submit puts in the mempool until ctx is
// cancelled, then drains what is left and returns. It is how a standalone
// node commits transactions nobody waits on (the ingest pipeline's): it
// sleeps until Submit signals work and runs CommitAll, so an idle node's
// transaction is in a block as soon as it can be, and under load
// everything that arrived while one block was being committed shares the
// next — group commit whose batch follows the load, with no interval to
// tune. It returns ErrReplicated at once under consensus, and the first
// commit error otherwise.
func (p *Platform) RunCommitter(ctx context.Context) error {
	if p.ConsensusAttached() {
		return ErrReplicated
	}
	for {
		select {
		case <-ctx.Done():
			return p.CommitAll()
		case <-p.wake:
		}
		if err := p.CommitAll(); err != nil {
			return err
		}
	}
}

// stage runs fn as one stage of the commit whose span is sp.
func (p *Platform) stage(sp *telemetry.Span, st commitStage, fn func()) {
	h := p.tm.stageSec[st]
	if h == nil {
		fn()
		return
	}
	child := sp.Child(commitStages[st].span)
	start := time.Now()
	p.tm.stageCPU[st].Time(fn)
	h.Observe(time.Since(start).Seconds())
	child.End()
}

// Commit mines one block from the mempool in standalone mode: its header
// carries the state root before it (a deferred root, which replay checks
// before executing the block), the authority's one precommit certifies it
// as the quorum of a validator set of one, and commitDecided commits it.
// It returns the block and its receipts (nil block if the pool was empty).
func (p *Platform) Commit() (*ledger.Block, []contract.Receipt, error) {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if p.ConsensusAttached() {
		return nil, nil, ErrReplicated
	}
	txs := p.pool.Batch(p.cfg.MaxTxsPerBlock)
	if len(txs) == 0 {
		return nil, nil, nil
	}
	sp, start := p.beginCommit()
	blk := ledger.NewBlock(p.chain.Height(), p.chain.HeadID(), [32]byte{}, p.clock(), p.authority.Address(), txs)
	var err error
	p.stage(sp, stageStateRoot, func() { blk.Header.StateRoot, err = p.engine.StateRoot() })
	if err != nil {
		sp.SetAttr("error", "state_root")
		sp.End()
		return nil, nil, fmt.Errorf("platform: state root: %w", err)
	}
	vote := consensus.Vote{Type: consensus.VotePrecommit, Height: blk.Header.Height, BlockID: blk.ID(), Voter: p.authority.Address()}
	consensus.SignVote(&vote, p.authority)
	cert := consensus.EncodeCommit(&consensus.Commit{Height: vote.Height, BlockID: vote.BlockID, Quorum: []consensus.Vote{vote}})
	recs, err := p.commitDecided(sp, start, blk, cert)
	if err != nil {
		return nil, nil, fmt.Errorf("platform: append block: %w", err)
	}
	return blk, recs, nil
}

// CommitAll mines blocks until the mempool drains.
func (p *Platform) CommitAll() error {
	for {
		blk, _, err := p.Commit()
		if err != nil {
			return err
		}
		if blk == nil {
			return nil
		}
	}
}

// beginCommit starts one block's commit span and (with telemetry) clock,
// which commitDecided ends: both cover every stage the block ran.
func (p *Platform) beginCommit() (*telemetry.Span, time.Time) {
	var start time.Time
	if p.tm.commitSec != nil {
		start = time.Now()
	}
	return p.tracer.Start("platform.commit"), start
}

// commitDecided commits a decided block, a validator's or Commit's, in
// stages of the commit begun at start under sp: appended to the chain with
// its encoded certificate (WAL fsync included) outside p.mu, out of the
// mempool, then under p.mu executed, the transaction index's tail sealed if
// the block filled it, receipts logged, the views updated and its
// offenders' penalties enqueued. Only a failed append is an error: a seal,
// receipts, a view or a penalty that could not be written are marked on the
// span, since the block is committed (an unsealed tail is sealed with the
// next block; lost receipts count in trustnews_platform_receipt_errors_total
// and the next Open repairs the log; a view's miss counts in
// trustnews_platform_view_errors_total). Caller holds p.commitMu.
func (p *Platform) commitDecided(sp *telemetry.Span, start time.Time, b *ledger.Block, cert []byte) ([]contract.Receipt, error) {
	defer sp.End()
	var err error
	p.stage(sp, stageAppend, func() { err = p.chain.Append(b, cert) })
	if err != nil {
		sp.SetAttr("error", "append")
		return nil, err
	}
	p.pool.Remove(b.Txs)
	p.mu.Lock()
	defer p.mu.Unlock()
	var recs []contract.Receipt
	p.stage(sp, stageExecute, func() { recs = p.engine.ExecuteBlock(b) })
	p.stage(sp, stageTxIndex, func() {
		err = p.chain.SealTxIndex()
		p.setStoreGauges()
	})
	if err != nil {
		sp.SetAttr("error", "txindex")
	}
	p.stage(sp, stageReceipts, func() { err = p.recordReceiptsLocked(b.Header.Height, recs) })
	if err != nil {
		sp.SetAttr("error", "receipts")
		p.tm.receiptErrs.Inc()
	}
	p.stage(sp, stagePublish, func() { err = p.updateViewsLocked(recs) })
	if err != nil {
		sp.SetAttr("error", "views")
	}
	if err := p.penalizeOffendersLocked(recs); err != nil {
		sp.SetAttr("error", "penalize")
	}
	p.tm.commits.Inc()
	p.tm.txs.Add(uint64(len(b.Txs)))
	if p.tm.commitSec != nil {
		p.tm.commitSec.Observe(time.Since(start).Seconds())
	}
	sp.SetAttr("height", fmt.Sprintf("%d", b.Header.Height))
	sp.SetAttr("txs", fmt.Sprintf("%d", len(b.Txs)))
	next := make(chan struct{})
	close(*p.committed.Swap(&next))
	return recs, nil
}

// Committed returns a channel that is closed when the next block commits,
// once its receipts are recorded. A waiter that takes the channel before
// it looks for a block's effects misses no commit.
func (p *Platform) Committed() <-chan struct{} { return *p.committed.Load() }

// setStoreGauges publishes the sizes of the chain's transaction index and
// the contract state.
func (p *Platform) setStoreGauges() {
	if p.tm.txIndexMemory == nil {
		return
	}
	st := p.chain.TxIndexStats()
	p.tm.txIndexMemory.Set(float64(st.Memory))
	p.tm.txIndexSealed.Set(float64(st.Sealed))
	ss := p.engine.StateStats()
	p.tm.stateMemory.Set(float64(ss.Memory))
	p.tm.stateSealed.Set(float64(ss.Sealed))
	p.tm.stateLogBytes.Set(float64(ss.LogBytes))
}

// penalizeOffendersLocked closes the accountability loop: each consensus
// offence a block records (an evidence "slashed" event) burns the
// offender's ranking stake through an authority rank.penalize tx, which
// lands in a later block. Only live commits call it: a replayed block's
// penalty is already in the chain, and enqueueing it again would burn
// what the offender holds now. Caller holds p.mu.
func (p *Platform) penalizeOffendersLocked(recs []contract.Receipt) error {
	for _, rec := range recs {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != evidence.ContractName || e.Type != "slashed" {
				continue
			}
			payload, err := ranking.PenalizePayload(e.Attrs["offender"])
			if err != nil {
				return err
			}
			if err := p.authoritySubmitLocked("rank.penalize", payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// updateViewsLocked feeds one committed block's receipts into the views
// derived from them: each fact the block admitted joins the fact index, and
// its published items are queued for the search indexer. Blocks arrive in
// chain order, since chain.Append takes only head+1 and replay walks the
// chain. A result that does not decode is skipped and returned, counted
// once per view in trustnews_platform_view_errors_total, and never fails
// the commit: the block is durable, and a view's miss must not fork the
// node away from consensus. Caller holds p.mu.
func (p *Platform) updateViewsLocked(recs []contract.Receipt) error {
	var factErr error
	for _, rec := range recs {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != factdb.ContractName || e.Type != "fact_added" {
				continue
			}
			var f factdb.Fact
			if err := json.Unmarshal(rec.Result, &f); err != nil {
				factErr = fmt.Errorf("platform: decode fact_added result: %w", err)
				continue
			}
			p.factIndex.Add(f)
		}
	}
	searchErr := p.indexer.Enqueue(recs)
	for _, err := range []error{factErr, searchErr} {
		if err != nil {
			p.tm.viewErrs.Inc()
		}
	}
	return errors.Join(factErr, searchErr)
}

// ---------------------------------------------------------------------------
// Ranking pipeline.
// ---------------------------------------------------------------------------

// ItemRank is the full ranking output for one news item.
type ItemRank struct {
	ItemID string  `json:"itemId"`
	Score  float64 `json:"score"`
	// Factual is the binary verdict at 0.5.
	Factual bool `json:"factual"`
	// Components for transparency (the paper's WVU-style "breakdown that
	// explains the rating", §I).
	AIFakeProb float64                 `json:"aiFakeProb"`
	Trace      supplychain.TraceResult `json:"trace"`
	VoteCount  int                     `json:"voteCount"`
	Mechanism  ranking.Mechanism       `json:"mechanism"`
}

// RankItem scores a committed news item under the given mechanism.
func (p *Platform) RankItem(itemID string, mech ranking.Mechanism) (ItemRank, error) {
	it, err := p.Item(itemID)
	if err != nil {
		return ItemRank{}, err
	}
	sig := ranking.Signals{AIFakeProb: -1, TraceScore: -1}
	out := ItemRank{ItemID: itemID, Mechanism: mech, AIFakeProb: -1}

	p.mu.Lock()
	cls := p.classifier
	p.mu.Unlock()
	if cls != nil {
		if prob, err := cls.Score(it.Text); err == nil {
			sig.AIFakeProb = prob
			out.AIFakeProb = prob
		}
	}
	// An item the graph does not find is ranked without the trace signal;
	// a trace that cannot be computed here (ErrBodyUnavailable, a state
	// read that failed) is not a missing signal but a wrong answer, so it
	// goes back to the caller.
	tr, err := p.graph.Trace(itemID)
	switch {
	case err == nil:
		sig.TraceScore = tr.Score
		sig.TraceRooted = tr.Rooted
		out.Trace = tr
	case !errors.Is(err, supplychain.ErrItemNotFound):
		return ItemRank{}, fmt.Errorf("platform: rank %s: %w", itemID, err)
	}
	votes, err := ranking.Votes(p.engine, p.authority.Address(), itemID)
	if err == nil {
		sig.Votes = votes
		out.VoteCount = len(votes)
	}
	agg := ranking.Aggregator{Mechanism: mech, Weights: p.cfg.Weights}
	score, err := agg.Score(sig)
	if err != nil {
		return ItemRank{}, fmt.Errorf("platform: rank %s: %w", itemID, err)
	}
	out.Score = score
	out.Factual = ranking.Verdict(score)
	return out, nil
}

// ResolveByRanking ranks an item with the combined mechanism, resolves the
// staked votes accordingly, and — when the item scores above the
// promotion threshold — promotes it into the factual database (§VI: "if
// the news is verified to be factual, then it can be added into the
// factual database"). The resolution txs are committed immediately.
func (p *Platform) ResolveByRanking(itemID string) (ItemRank, error) {
	rank, err := p.RankItem(itemID, ranking.MechanismCombined)
	if err != nil {
		return ItemRank{}, err
	}
	payload, err := ranking.ResolvePayload(itemID, rank.Factual)
	if err != nil {
		return ItemRank{}, err
	}
	if err := p.authoritySubmit("rank.resolve", payload); err != nil {
		return ItemRank{}, err
	}
	// Creator incentive (Fig. 2): verified factual content earns its
	// creator a token reward, funding the "encourage and reward factual
	// news sources" loop.
	if rank.Factual {
		if it, err := supplychain.GetItem(p.engine, p.authority.Address(), itemID); err == nil {
			if addr, err := keys.ParseAddress(it.Creator); err == nil {
				if payload, err := ranking.MintPayload(addr, creatorReward); err == nil {
					if err := p.authoritySubmit("rank.mint", payload); err != nil {
						return ItemRank{}, err
					}
				}
			}
		}
	}

	// Promotion gate (§VI): an item enters the factual database when the
	// verdict is factual AND either its trace already certifies it (a
	// near-verbatim descendant of a fact) or the reputation-weighted crowd
	// consensus clears the promotion threshold — the crowd-sourced
	// verification path for genuinely new reporting.
	votes, _ := ranking.Votes(p.engine, p.authority.Address(), itemID)
	crowd, hasCrowd := ranking.WeightedCrowdScore(votes)
	certified := rank.Trace.Rooted && rank.Trace.Score >= p.cfg.PromoteThreshold
	if rank.Factual && (certified || (hasCrowd && crowd >= p.cfg.PromoteThreshold)) {
		it, err := p.Item(itemID)
		if err == nil && !p.factIndex.Contains(it.Text) {
			// The stored certification score is whichever signal cleared
			// the gate.
			certScore := crowd
			if certified && rank.Trace.Score > certScore {
				certScore = rank.Trace.Score
			}
			pp, err := factdb.PromotePayload(itemID, it.Topic, it.Text, certScore)
			if err == nil {
				// A duplicate promotion (same normalized text from another
				// item) fails in-contract; that is fine.
				_ = p.authoritySubmit("factdb.promote", pp)
			}
		}
	}
	if err := p.CommitAll(); err != nil {
		return ItemRank{}, err
	}
	return rank, nil
}

// authoritySubmit signs a tx as the platform authority and enqueues it,
// tracking pending nonces so multiple authority txs can share one block.
func (p *Platform) authoritySubmit(kind string, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.authoritySubmitLocked(kind, payload)
}

// authoritySubmitLocked is authoritySubmit with p.mu already held.
func (p *Platform) authoritySubmitLocked(kind string, payload []byte) error {
	committed := p.chain.NextNonce(p.authority.Address().String())
	if committed > p.authNonce {
		p.authNonce = committed
	}
	tx, err := ledger.NewTx(p.authority, p.authNonce, kind, payload)
	if err != nil {
		return err
	}
	if err := p.pool.Add(tx); err != nil {
		return err
	}
	p.authNonce++
	return nil
}

// SubmitAuthority signs a transaction as the platform authority and
// commits immediately. Experiments use it to resolve items against a
// ground-truth oracle.
func (p *Platform) SubmitAuthority(kind string, payload []byte) error {
	if err := p.authoritySubmit(kind, payload); err != nil {
		return err
	}
	return p.CommitAll()
}

// MintTo grants platform tokens (authority-signed) and commits.
func (p *Platform) MintTo(addr keys.Address, amount uint64) error {
	payload, err := ranking.MintPayload(addr, amount)
	if err != nil {
		return err
	}
	if err := p.authoritySubmit("rank.mint", payload); err != nil {
		return err
	}
	return p.CommitAll()
}

// VerifyAccount genesis-verifies a registered account and commits.
func (p *Platform) VerifyAccount(addr keys.Address) error {
	payload, err := identity.ActPayload(addr)
	if err != nil {
		return err
	}
	if err := p.authoritySubmit("identity.verify", payload); err != nil {
		return err
	}
	return p.CommitAll()
}

// SeedFact adds an official record to the factual database and commits.
func (p *Platform) SeedFact(id string, topic corpus.Topic, text string) error {
	payload, err := factdb.SeedPayload(id, topic, text)
	if err != nil {
		return err
	}
	if err := p.authoritySubmit("factdb.seed", payload); err != nil {
		return err
	}
	return p.CommitAll()
}

// Experts mines the ledger for domain-topic experts (§VI, experiment
// E8). It reads every committed item from contract state to find the
// topic's and traces each of those: the scan costs one read of every item
// whatever the topic, the traces follow the topic.
func (p *Platform) Experts(topic corpus.Topic, k int) ([]supplychain.ExpertScore, error) {
	return p.graph.Experts(topic, k)
}

// ---------------------------------------------------------------------------
// Actor: a convenience client holding a key and tracking nonces.
// ---------------------------------------------------------------------------

// Actor is a platform participant bound to one key pair.
type Actor struct {
	kp *keys.KeyPair
	p  *Platform
	mu sync.Mutex
	n  uint64
}

// NewActor derives an actor from a seed name.
func (p *Platform) NewActor(seed string) *Actor {
	return &Actor{kp: keys.FromSeed([]byte(seed)), p: p}
}

// Address returns the actor's ledger address.
func (a *Actor) Address() keys.Address { return a.kp.Address() }

// Key exposes the actor's key pair (for consensus wiring).
func (a *Actor) Key() *keys.KeyPair { return a.kp }

// Send signs, submits and returns the tx (not yet committed).
func (a *Actor) Send(kind string, payload []byte) (*ledger.Tx, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	committed := a.p.chain.NextNonce(a.kp.Address().String())
	if committed > a.n {
		a.n = committed
	}
	tx, err := ledger.NewTx(a.kp, a.n, kind, payload)
	if err != nil {
		return nil, err
	}
	if err := a.p.Submit(tx); err != nil {
		return nil, err
	}
	a.n++
	return tx, nil
}

// MustExec sends a tx, commits, and fails if the receipt is not OK.
func (a *Actor) MustExec(kind string, payload []byte) (contract.Receipt, error) {
	tx, err := a.Send(kind, payload)
	if err != nil {
		return contract.Receipt{}, err
	}
	if err := a.p.CommitAll(); err != nil {
		return contract.Receipt{}, err
	}
	rec, ok := a.p.Receipt(tx.ID())
	if !ok {
		return contract.Receipt{}, fmt.Errorf("%w: no receipt for %s", ErrTxFailed, tx.ID().Short())
	}
	if !rec.OK {
		return rec, fmt.Errorf("%w: %s: %s", ErrTxFailed, kind, rec.Err)
	}
	return rec, nil
}

// Register registers the actor's identity with a role.
func (a *Actor) Register(name string, role identity.Role) error {
	payload, err := identity.RegisterPayload(name, role)
	if err != nil {
		return err
	}
	_, err = a.MustExec("identity.register", payload)
	return err
}

// PublishNews publishes a news item (optionally derived from parents). The
// body is written to the blob store and only its content id and size enter
// the transaction payload (the platform's in-process stand-in for the IPFS
// deployments of DClaims-style systems); the read paths hydrate the body
// wherever the text is needed.
func (a *Actor) PublishNews(id string, topic corpus.Topic, text string, parents []string, op corpus.Op) error {
	cid, err := a.p.blobs.PutString(text)
	if err != nil {
		return fmt.Errorf("platform: store body of %s: %w", id, err)
	}
	payload, err := supplychain.PublishRefPayload(id, topic, string(cid), len(text), parents, op)
	if err != nil {
		return err
	}
	_, err = a.MustExec("news.publish", payload)
	return err
}

// Relay republishes a committed item verbatim under a new id.
func (a *Actor) Relay(newID, parentID string) error {
	parent, err := a.p.Item(parentID)
	if err != nil {
		return err
	}
	return a.PublishNews(newID, parent.Topic, parent.Text, []string{parentID}, corpus.OpVerbatim)
}

// Vote stakes tokens on an item's verdict.
func (a *Actor) Vote(itemID string, factual bool, stake uint64) error {
	payload, err := ranking.VotePayload(itemID, factual, stake)
	if err != nil {
		return err
	}
	_, err = a.MustExec("rank.vote", payload)
	return err
}

// Balance returns the actor's token balance.
func (a *Actor) Balance() (uint64, error) {
	return ranking.Balance(a.p.engine, a.kp.Address(), a.kp.Address())
}

// Reputation returns the actor's ranking reputation.
func (a *Actor) Reputation() (float64, error) {
	return ranking.Reputation(a.p.engine, a.kp.Address(), a.kp.Address())
}
