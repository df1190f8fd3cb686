package ingest

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// The retry rule: a failed attempt returns its item to ready after
// retryDelay, and the maxAttempts-th failed attempt dead-letters it.
const (
	retryDelay  = 500 * time.Millisecond
	maxAttempts = 5
)

// queueItem is one live article plus its delivery state.
type queueItem struct {
	seq      uint64
	art      Article
	attempts int
	inFlight bool
	rec      uint64 // index of its enqueue record in the WAL, at open
}

// DeadItem is a poison article parked after exhausting its attempts.
type DeadItem struct {
	Seq      uint64  `json:"seq"`
	Article  Article `json:"article"`
	Attempts int     `json:"attempts"`
	Reason   string  `json:"reason"`
}

// QueueStats is the queue's observable state.
type QueueStats struct {
	// Depth is the number of live items (ready, in flight or waiting to
	// retry).
	Depth int `json:"depth"`
	// Inflight is the number of items taken by a worker and not yet
	// settled or released for retry.
	Inflight int `json:"inflight"`
	// Dead is the number of dead-lettered items.
	Dead int `json:"dead"`
	// Enqueued, Acked and Retries count since open (replayed live items
	// count as enqueued).
	Enqueued uint64 `json:"enqueued"`
	Acked    uint64 `json:"acked"`
	Retries  uint64 `json:"retries"`
}

// Queue is the durable, bounded ingest work queue. Every accepted
// article is WAL-logged before Enqueue returns; acks and dead-letter
// decisions are logged too, so a crashed node replays the log and
// resumes with exactly the unacknowledged work. An item is ready or in
// flight: Take hands the oldest ready item to a worker, and it stays in
// flight until Ack, DeadLetter or Retry. Safe for concurrent use.
type Queue struct {
	mu       sync.Mutex
	capacity int
	wal      store.Log

	items   map[uint64]*queueItem
	ready   []uint64 // ready seqs, oldest first
	dead    []DeadItem
	nextSeq uint64

	inflight                 int
	enqueued, acked, retries uint64
	closed                   bool
	// wake holds at most one pending "an item is ready" signal for the
	// workers blocked in Take; Close closes it.
	wake chan struct{}

	// retryDelay and maxAttempts are the retry rule's constants; tests
	// in this package shorten them.
	retryDelay  time.Duration
	maxAttempts int

	tmDepth    *telemetry.Gauge
	tmEnqueued *telemetry.Counter
	tmAcked    *telemetry.Counter
	tmRetries  *telemetry.Counter
	tmDead     *telemetry.Counter
}

// NewQueue opens a queue holding at most capacity live items (<= 0
// means 4096) over the given WAL, replaying it to recover live items.
// Items in flight at crash time are ready again; items acked or
// dead-lettered before the crash stay settled. The log is then rewritten
// down to the records replay needs: each live item's enqueue record, each
// dead item's enqueue and dead records, and the newest enqueue record with
// its ack, so sequence numbers are never reused. A nil log gets an
// in-memory one (tests, ephemeral nodes).
func NewQueue(wal store.Log, capacity int) (*Queue, error) {
	if capacity <= 0 {
		capacity = 4096
	}
	if wal == nil {
		wal = store.NewMemLog()
	}
	q := &Queue{
		capacity:    capacity,
		wal:         wal,
		items:       make(map[uint64]*queueItem),
		wake:        make(chan struct{}, 1),
		retryDelay:  retryDelay,
		maxAttempts: maxAttempts,
	}
	var keep, newest []uint64 // dead items' records; the newest enqueue and its ack
	n := wal.Len()
	for i := uint64(0); i < n; i++ {
		rec, err := wal.Get(i)
		if err != nil {
			return nil, fmt.Errorf("ingest: replay record %d: %w", i, err)
		}
		op, seq, art, err := decodeRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("ingest: replay record %d: %w", i, err)
		}
		if seq >= q.nextSeq {
			q.nextSeq = seq + 1
			newest = nil
		}
		it, live := q.items[seq]
		switch {
		case op == opEnqueue:
			q.items[seq] = &queueItem{seq: seq, art: art, rec: i}
		case !live:
		case op == opAck:
			if seq+1 == q.nextSeq {
				newest = []uint64{it.rec, i}
			}
			delete(q.items, seq)
		case op == opDead:
			keep = append(keep, it.rec, i)
			q.dead = append(q.dead, DeadItem{Seq: seq, Article: it.art, Reason: "replayed dead-letter"})
			delete(q.items, seq)
		}
	}
	for seq, it := range q.items {
		keep = append(keep, it.rec)
		q.ready = append(q.ready, seq)
	}
	slices.Sort(q.ready)
	keep = append(keep, newest...)
	if rw, ok := wal.(interface{ Rewrite([]uint64) error }); ok && uint64(len(keep)) < n {
		slices.Sort(keep)
		if err := rw.Rewrite(keep); err != nil {
			return nil, fmt.Errorf("ingest: compact wal: %w", err)
		}
	}
	q.enqueued = uint64(len(q.items))
	return q, nil
}

// Instrument registers the trustnews_ingest_* queue instruments on reg
// (nil disables).
func (q *Queue) Instrument(reg *telemetry.Registry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tmDepth = reg.Gauge("trustnews_ingest_queue_depth", "Live ingest queue items (ready, in flight or waiting to retry).")
	q.tmEnqueued = reg.Counter("trustnews_ingest_enqueued_total", "Articles accepted into the ingest queue.")
	q.tmAcked = reg.Counter("trustnews_ingest_acked_total", "Ingest queue items acknowledged (published or deduplicated).")
	q.tmRetries = reg.Counter("trustnews_ingest_retries_total", "Ingest queue items released for a retry.")
	q.tmDead = reg.Counter("trustnews_ingest_dead_total", "Ingest queue items dead-lettered.")
	q.tmDepth.Set(float64(len(q.items)))
}

// Enqueue accepts one article: it is durable (WAL-appended) before the
// call returns. Fails fast with ErrQueueFull at capacity.
func (q *Queue) Enqueue(a Article) (uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	if len(q.items) >= q.capacity {
		return 0, ErrQueueFull
	}
	seq := q.nextSeq
	if _, err := q.wal.Append(encodeRecord(opEnqueue, seq, &a)); err != nil {
		return 0, fmt.Errorf("ingest: wal enqueue: %w", err)
	}
	q.nextSeq++
	q.items[seq] = &queueItem{seq: seq, art: a}
	q.readyLocked(seq)
	q.enqueued++
	q.tmEnqueued.Inc()
	q.tmDepth.Set(float64(len(q.items)))
	return seq, nil
}

// readyLocked appends seq to the ready list and signals a waiting worker.
func (q *Queue) readyLocked(seq uint64) {
	q.ready = append(q.ready, seq)
	q.signalLocked()
}

func (q *Queue) signalLocked() {
	select {
	case q.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// Take blocks until an item is ready and hands the oldest one to the
// caller, in flight. It returns ok=false once ctx is done or the queue
// is closed.
func (q *Queue) Take(ctx context.Context) (seq uint64, a Article, ok bool) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return 0, Article{}, false
		}
		for len(q.ready) > 0 {
			it := q.items[q.ready[0]]
			q.ready = q.ready[1:]
			if it == nil {
				continue // acked or dead-lettered while it waited
			}
			if len(q.ready) > 0 {
				q.signalLocked() // more is ready: wake the next worker
			}
			it.attempts++
			it.inFlight = true
			q.inflight++
			q.mu.Unlock()
			return it.seq, it.art, true
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return 0, Article{}, false
		case <-q.wake:
		}
	}
}

// Ack settles an item for good: the decision is WAL-logged, so a
// replay never redelivers it. Acking an unknown (already settled) seq
// is a no-op.
func (q *Queue) Ack(seq uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	it, ok := q.items[seq]
	if !ok {
		return nil
	}
	if _, err := q.wal.Append(encodeRecord(opAck, seq, nil)); err != nil {
		return fmt.Errorf("ingest: wal ack: %w", err)
	}
	q.removeLocked(it)
	q.acked++
	q.tmAcked.Inc()
	return nil
}

// Retry reports a failed attempt. The item leaves flight and is ready
// again after the retry delay, unless this was its last attempt: then it
// is dead-lettered.
func (q *Queue) Retry(seq uint64, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	it, ok := q.items[seq]
	if !ok || !it.inFlight {
		return nil
	}
	if it.attempts >= q.maxAttempts {
		q.deadLetterLocked(it, reason)
		return nil
	}
	it.inFlight = false
	q.inflight--
	q.retries++
	q.tmRetries.Inc()
	time.AfterFunc(q.retryDelay, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.items[seq] == it && !q.closed {
			q.readyLocked(seq)
		}
	})
	return nil
}

// DeadLetter parks an item at once, whatever its attempts: a failure no
// retry can mend.
func (q *Queue) DeadLetter(seq uint64, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if it, ok := q.items[seq]; ok {
		q.deadLetterLocked(it, reason)
	}
	return nil
}

func (q *Queue) deadLetterLocked(it *queueItem, reason string) {
	// Best effort: a WAL write failure leaves the item live in the log,
	// which only means it is tried again after a restart.
	_, _ = q.wal.Append(encodeRecord(opDead, it.seq, nil))
	q.dead = append(q.dead, DeadItem{Seq: it.seq, Article: it.art, Attempts: it.attempts, Reason: reason})
	q.removeLocked(it)
	q.tmDead.Inc()
}

// removeLocked drops a settled item from the live set. A ready item's
// seq stays in the ready list; Take skips it.
func (q *Queue) removeLocked(it *queueItem) {
	if it.inFlight {
		q.inflight--
	}
	delete(q.items, it.seq)
	q.tmDepth.Set(float64(len(q.items)))
}

// Dead returns the dead-lettered items, oldest first.
func (q *Queue) Dead() []DeadItem {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]DeadItem(nil), q.dead...)
}

// Depth returns the number of live items.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Stats reports queue accounting.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Depth:    len(q.items),
		Inflight: q.inflight,
		Dead:     len(q.dead),
		Enqueued: q.enqueued,
		Acked:    q.acked,
		Retries:  q.retries,
	}
}

// Close flushes and closes the WAL and wakes every worker blocked in
// Take. Further mutations fail ErrClosed.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	close(q.wake)
	return q.wal.Close()
}
