package ingest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/factdb"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// ItemIDFor derives the deterministic chain id of an ingested article
// from its normalized content key; text must be the extracted body (pass
// raw fetches through Extract first). Two fetches of the same story —
// from two sources, two workers, or the same item redelivered after a
// crash — collide on this id, and the supply-chain contract's
// duplicate-id rejection turns the second publish into a dedup ack. This
// is what makes ingest publishes effectively exactly-once without
// distributed coordination.
func ItemIDFor(text string) string {
	return "ing-" + factdb.ContentKey(text)[:24]
}

// ackTimeout retries a submitted publish whose receipt never lands (the
// tx was lost, e.g. shed from the mempool).
const ackTimeout = 10 * time.Second

// PipelineStats is the pipeline's observable state.
type PipelineStats struct {
	Queue QueueStats `json:"queue"`
	// Published counts articles whose publish committed OK.
	Published uint64 `json:"published"`
	// Deduped counts articles acked because their content was already on
	// chain (duplicate fetch, or a redelivery after a crash).
	Deduped uint64 `json:"deduped"`
	// Truncated counts bodies cut at DefaultMaxBodyBytes during extraction.
	Truncated uint64 `json:"truncated"`
	// Failed counts failed attempts (publish error, failed receipt,
	// receipt timeout or an empty body).
	Failed uint64 `json:"failed"`
	// AwaitingCommit is the number of submitted publishes whose receipt
	// has not landed yet.
	AwaitingCommit int `json:"awaitingCommit"`
}

// pendingTx is one submitted publish awaiting its commit receipt.
type pendingTx struct {
	seq      uint64
	itemID   string
	deadline time.Time
}

// Pipeline drains the ingest queue with concurrent workers: each item
// is extracted (size-capped), its body chunked into the blob store, and
// a reference publish submitted to the mempool under a deterministic
// content-derived id. The worker does NOT wait for the commit: one
// settle goroutine wakes when a block commits and settles queue items as
// their publishes' receipts land, so ingest throughput is decoupled from
// block cadence and the commit path never blocks on ingest work.
type Pipeline struct {
	p       *platform.Platform
	q       *Queue
	workers int
	actor   *platform.Actor
	// ackTimeout is the package constant; tests in this package shorten
	// it.
	ackTimeout time.Duration

	mu        sync.Mutex
	pending   map[ledger.TxID]pendingTx
	published uint64
	deduped   uint64
	truncated uint64
	failed    uint64

	// submitted holds at most one pending "a publish was submitted"
	// signal for the settler, so it arms the publish's deadline and
	// settles a receipt that landed before the publish was recorded.
	submitted chan struct{}
	// afterPass, when set, runs between a settle pass and the wait after
	// it (tests commit a block there).
	afterPass func()
	ctx       context.Context // done once Stop is called
	stop      context.CancelFunc
	wg        sync.WaitGroup

	tmPublished  *telemetry.Counter
	tmDeduped    *telemetry.Counter
	tmTruncated  *telemetry.Counter
	tmFailed     *telemetry.Counter
	tmPublishSec *telemetry.Histogram
}

// NewPipeline builds a pipeline draining q into p with the given number
// of workers (<= 0 means 4). Call Start to run them.
func NewPipeline(p *platform.Platform, q *Queue, workers int) *Pipeline {
	if workers <= 0 {
		workers = 4
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Pipeline{
		p:          p,
		q:          q,
		workers:    workers,
		actor:      p.NewActor("ingest-pipeline"),
		ackTimeout: ackTimeout,
		pending:    make(map[ledger.TxID]pendingTx),
		submitted:  make(chan struct{}, 1),
		ctx:        ctx,
		stop:       stop,
	}
}

// Queue exposes the pipeline's work queue (producers enqueue here).
func (pl *Pipeline) Queue() *Queue { return pl.q }

// Instrument registers the trustnews_ingest_* pipeline instruments on
// reg (nil disables) and forwards to the queue's.
func (pl *Pipeline) Instrument(reg *telemetry.Registry) {
	pl.q.Instrument(reg)
	pl.tmPublished = reg.Counter("trustnews_ingest_published_total", "Ingested articles whose publish committed.")
	pl.tmDeduped = reg.Counter("trustnews_ingest_deduped_total", "Ingested articles already on chain (content-key dedup).")
	pl.tmTruncated = reg.Counter("trustnews_ingest_truncated_total", "Ingested bodies cut at the extraction size cap.")
	pl.tmFailed = reg.Counter("trustnews_ingest_failed_total", "Failed ingest attempts.")
	pl.tmPublishSec = reg.Histogram("trustnews_ingest_publish_seconds", "Extract + blob put + submit time per article.", nil)
}

// Start launches the workers and the settler.
func (pl *Pipeline) Start() {
	pl.wg.Add(pl.workers + 1)
	for i := 0; i < pl.workers; i++ {
		go pl.worker()
	}
	go pl.settleLoop()
}

// Stop halts the workers and the settler and waits for them. Items in
// flight stay in flight until a restart replays them from the WAL; the
// content id turns a publish of theirs that did land into a dedup.
func (pl *Pipeline) Stop() {
	pl.stop()
	pl.wg.Wait()
}

// Enqueue adds one article to the pipeline's durable queue.
func (pl *Pipeline) Enqueue(a Article) (uint64, error) {
	return pl.q.Enqueue(a)
}

// Stats reports pipeline + queue accounting.
func (pl *Pipeline) Stats() PipelineStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return PipelineStats{
		Queue:          pl.q.Stats(),
		Published:      pl.published,
		Deduped:        pl.deduped,
		Truncated:      pl.truncated,
		Failed:         pl.failed,
		AwaitingCommit: len(pl.pending),
	}
}

// worker takes items as they become ready and runs them through
// extract → blob → submit.
func (pl *Pipeline) worker() {
	defer pl.wg.Done()
	for {
		seq, art, ok := pl.q.Take(pl.ctx)
		if !ok {
			return
		}
		pl.process(seq, art)
	}
}

// process runs one taken item to the submitted state (or settles it).
func (pl *Pipeline) process(seq uint64, art Article) {
	start := time.Now()
	text, truncated := Extract(art.Text, DefaultMaxBodyBytes)
	if truncated {
		pl.count(&pl.truncated, pl.tmTruncated)
	}
	if text == "" {
		// Nothing extractable: the contract would reject an empty body on
		// every attempt, so no retry can help.
		_ = pl.q.DeadLetter(seq, "empty body after extraction")
		pl.count(&pl.failed, pl.tmFailed)
		return
	}
	id := ItemIDFor(text)
	if _, err := supplychain.GetItem(pl.p.Engine(), pl.p.Authority(), id); err == nil {
		// Already on chain: duplicate fetch or crash redelivery.
		_ = pl.q.Ack(seq)
		pl.count(&pl.deduped, pl.tmDeduped)
		return
	}
	txID, err := pl.submitPublish(id, art, text)
	if err != nil {
		pl.retry(seq, fmt.Sprintf("submit: %v", err))
		return
	}
	pl.mu.Lock()
	pl.pending[txID] = pendingTx{seq: seq, itemID: id, deadline: time.Now().Add(pl.ackTimeout)}
	pl.mu.Unlock()
	select {
	case pl.submitted <- struct{}{}:
	default: // the settler has a wake-up pending
	}
	pl.tmPublishSec.Observe(time.Since(start).Seconds())
}

// submitPublish chunks the body off-chain and submits (not commits) a
// reference publish.
func (pl *Pipeline) submitPublish(id string, art Article, text string) (ledger.TxID, error) {
	cid, err := pl.p.Blobs().PutString(text)
	if err != nil {
		return ledger.TxID{}, fmt.Errorf("store body: %w", err)
	}
	payload, err := supplychain.PublishRefPayload(id, art.Topic, string(cid), len(text), nil, "")
	if err != nil {
		return ledger.TxID{}, err
	}
	tx, err := pl.actor.Send("news.publish", payload)
	if err != nil {
		return ledger.TxID{}, err
	}
	return tx.ID(), nil
}

// settleLoop runs a settle pass whenever a block commits, a worker
// submits a publish, or the earliest pending deadline passes, and sleeps
// in between. It takes the commit signal before each pass, so a block
// that commits during the pass wakes it again.
func (pl *Pipeline) settleLoop() {
	defer pl.wg.Done()
	timer := time.NewTimer(pl.ackTimeout)
	defer timer.Stop()
	for {
		committed := pl.p.Committed()
		next := pl.settle(time.Now())
		if pl.afterPass != nil {
			pl.afterPass()
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		var due <-chan time.Time
		if !next.IsZero() {
			timer.Reset(time.Until(next))
			due = timer.C
		}
		select {
		case <-pl.ctx.Done():
			return
		case <-committed:
		case <-pl.submitted:
		case <-due:
		}
	}
}

// settle settles the submitted publishes whose receipts have landed: an
// OK receipt acks the queue item; a failed receipt acks it anyway when
// the item exists on chain (a racing worker or a pre-crash publish won)
// and retries it otherwise. A publish with no receipt by its deadline is
// retried. It returns the earliest deadline still pending (zero if
// none).
func (pl *Pipeline) settle(now time.Time) (next time.Time) {
	pl.mu.Lock()
	ids := make([]ledger.TxID, 0, len(pl.pending))
	for id := range pl.pending {
		ids = append(ids, id)
	}
	pl.mu.Unlock()
	for _, txID := range ids {
		rec, have := pl.p.Receipt(txID)
		pl.mu.Lock()
		pt := pl.pending[txID] // only this goroutine removes entries
		if !have && now.Before(pt.deadline) {
			pl.mu.Unlock()
			if next.IsZero() || pt.deadline.Before(next) {
				next = pt.deadline
			}
			continue
		}
		delete(pl.pending, txID)
		pl.mu.Unlock()
		switch {
		case !have:
			pl.retry(pt.seq, "publish receipt timed out")
		case rec.OK:
			_ = pl.q.Ack(pt.seq)
			pl.count(&pl.published, pl.tmPublished)
		default:
			if _, err := supplychain.GetItem(pl.p.Engine(), pl.p.Authority(), pt.itemID); err == nil {
				_ = pl.q.Ack(pt.seq)
				pl.count(&pl.deduped, pl.tmDeduped)
			} else {
				pl.retry(pt.seq, fmt.Sprintf("publish failed: %s", rec.Err))
			}
		}
	}
	return next
}

// retry counts a failed attempt and hands the item back to the queue.
func (pl *Pipeline) retry(seq uint64, reason string) {
	_ = pl.q.Retry(seq, reason)
	pl.count(&pl.failed, pl.tmFailed)
}

// count bumps one of the pipeline's counters and its instrument.
func (pl *Pipeline) count(n *uint64, tm *telemetry.Counter) {
	pl.mu.Lock()
	*n++
	pl.mu.Unlock()
	tm.Inc()
}
