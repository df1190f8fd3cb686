package search

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/commitbus"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// SubscriberName identifies the search-index subscriber on the commit
// bus and keys its blob inside durable checkpoints.
const SubscriberName = "search-index"

// pendingDoc is one committed article awaiting indexing.
type pendingDoc struct {
	id    string
	topic string
	text  string // inline body ("" when off-chain)
	cid   string // off-chain body content id ("" when inline)
}

// Subscriber keeps the full-text index in sync with the chain by
// consuming published events from committed blocks.
//
// Indexing is asynchronous: OnCommit only extracts the published
// references from the block — cheap, bounded work — and hands them to
// a background indexer goroutine that hydrates off-chain bodies,
// tokenizes, and updates the index. The commit path therefore
// never blocks on indexing (or on blob reads), which is what keeps
// commit throughput flat while the ingest pipeline runs the index hot.
// The price is bounded staleness: queries may lag the chain by the
// indexer's backlog, observable as IndexerStats.Pending and the
// trustnews_search_indexer_lag_docs gauge. Flush waits for the backlog
// to drain; Snapshot flushes first, so checkpoints always capture an
// index consistent with the checkpoint height.
type Subscriber struct {
	Index *Index
	// Resolve hydrates an off-chain body from its content id. Required
	// once off-chain items appear; inline-only deployments may leave it
	// nil.
	Resolve func(cid string) (string, error)

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []pendingDoc
	running bool
	indexed uint64
	errs    uint64
	lastErr string

	tmIndexed  *telemetry.Counter
	tmErrors   *telemetry.Counter
	tmLag      *telemetry.Gauge
	tmBatchSec *telemetry.Histogram
}

var _ commitbus.Subscriber = (*Subscriber)(nil)

// NewSubscriber builds the async search subscriber over idx.
func NewSubscriber(idx *Index, resolve func(cid string) (string, error)) *Subscriber {
	s := &Subscriber{Index: idx, Resolve: resolve}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Instrument registers the trustnews_search_* indexer instruments on
// reg (nil disables).
func (s *Subscriber) Instrument(reg *telemetry.Registry) {
	s.tmIndexed = reg.Counter("trustnews_search_docs_indexed_total", "Documents applied to the search index by the async indexer.")
	s.tmErrors = reg.Counter("trustnews_search_index_errors_total", "Documents the indexer failed to apply (body resolution failures).")
	s.tmLag = reg.Gauge("trustnews_search_indexer_lag_docs", "Committed documents waiting for the async indexer.")
	s.tmBatchSec = reg.Histogram("trustnews_search_index_batch_seconds", "Async indexer batch apply time.", nil)
}

// Name implements commitbus.Subscriber.
func (s *Subscriber) Name() string { return SubscriberName }

// OnCommit implements commitbus.Subscriber: every item published in the
// block is queued for the async indexer. Only reference extraction
// happens on the commit path.
func (s *Subscriber) OnCommit(ev commitbus.CommitEvent) error {
	var batch []pendingDoc
	for _, rec := range ev.Receipts {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != supplychain.ContractName || e.Type != "published" {
				continue
			}
			var it supplychain.Item
			if err := json.Unmarshal(rec.Result, &it); err != nil {
				return fmt.Errorf("search: decode published result: %w", err)
			}
			batch = append(batch, pendingDoc{id: it.ID, topic: string(it.Topic), text: it.Text, cid: it.CID})
		}
	}
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	s.queue = append(s.queue, batch...)
	s.tmLag.Set(float64(len(s.queue)))
	if !s.running {
		s.running = true
		go s.drain()
	}
	s.mu.Unlock()
	return nil
}

// drain is the indexer goroutine: it applies queued batches in commit
// order until the queue empties, then exits (a later OnCommit restarts
// it). One drainer runs at a time, so index application order is
// deterministic.
func (s *Subscriber) drain() {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.running = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		batch := s.queue
		s.queue = nil
		s.mu.Unlock()

		var start time.Time
		if s.tmBatchSec != nil {
			start = time.Now()
		}
		for _, d := range batch {
			text := d.text
			if text == "" && d.cid != "" {
				if s.Resolve == nil {
					s.recordErr(fmt.Errorf("search: item %s has off-chain body %s but no resolver", d.id, d.cid))
					continue
				}
				var err error
				if text, err = s.Resolve(d.cid); err != nil {
					s.recordErr(fmt.Errorf("search: resolve body of %s: %w", d.id, err))
					continue
				}
			}
			s.Index.Add(d.id, d.topic, text)
			s.tmIndexed.Inc()
		}
		s.Index.Refresh()
		if s.tmBatchSec != nil {
			s.tmBatchSec.Observe(time.Since(start).Seconds())
		}

		s.mu.Lock()
		s.indexed += uint64(len(batch))
		s.tmLag.Set(float64(len(s.queue)))
		s.mu.Unlock()
	}
}

// recordErr accounts one dropped document.
func (s *Subscriber) recordErr(err error) {
	s.tmErrors.Inc()
	s.mu.Lock()
	s.errs++
	s.lastErr = err.Error()
	s.mu.Unlock()
}

// Flush blocks until the indexer has applied every queued document and
// published the result to queries.
func (s *Subscriber) Flush() {
	s.mu.Lock()
	for s.running || len(s.queue) > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	// Publish any documents Add buffered below the auto-flush
	// threshold.
	s.Index.Refresh()
}

// IndexerStats is the async indexer's observable state.
type IndexerStats struct {
	// Pending is the number of committed documents not yet indexed.
	Pending int `json:"pending"`
	// Indexed counts documents applied since start or restore.
	Indexed uint64 `json:"indexed"`
	// Errors counts documents dropped (body resolution failures).
	Errors uint64 `json:"errors"`
	// LastError is the most recent drop reason, if any.
	LastError string `json:"lastError,omitempty"`
}

// Stats reports the indexer backlog and error accounting.
func (s *Subscriber) Stats() IndexerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return IndexerStats{Pending: len(s.queue), Indexed: s.indexed, Errors: s.errs, LastError: s.lastErr}
}

// Snapshot implements commitbus.Subscriber. The indexer is flushed
// first, so the blob captures exactly the documents committed so far.
func (s *Subscriber) Snapshot() ([]byte, error) {
	s.Flush()
	return s.Index.snapshot(), nil
}

// Restore implements commitbus.Subscriber. A blob that is not a snapshot
// this build wrote fails with ErrBadSnapshot and leaves the index as it was.
func (s *Subscriber) Restore(data []byte) error {
	s.Flush()
	if err := s.Index.restore(data); err != nil {
		return err
	}
	s.mu.Lock()
	s.queue = nil
	s.indexed, s.errs, s.lastErr = 0, 0, ""
	s.mu.Unlock()
	return nil
}
