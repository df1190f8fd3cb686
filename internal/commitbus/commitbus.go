// Package commitbus is the event-sourced seam between block commitment
// and the views derived from it. The paper's Fig. 1 platform derives its
// mechanism inputs from the transaction ledger; this package turns that
// derivation into an explicit, typed pipeline: every committed block is
// published as one CommitEvent, and each view that keeps state of its own
// — the factual database (C1), the search index — registers as a
// Subscriber. The news
// supply-chain graph (C2) and the reputation-weighted ranking books (C3)
// are not on the bus: they read the contract state execution wrote.
//
// Delivery is strictly ordered: events are published in chain order and
// each subscriber sees them in registration order within an event. The
// bus keeps per-subscriber delivery, error and lag accounting, so an
// index that falls behind (a subscriber returning errors) is observable
// rather than silently wrong. Subscribers also implement Snapshot and
// Restore, which is what makes durable-node checkpointing possible: a
// checkpoint is the chain height plus every subscriber's snapshot, and a
// restart restores the snapshots and replays only the WAL tail instead
// of the whole chain (see internal/store and platform.Open).
package commitbus

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/contract"
	"repro/internal/ledger"
	"repro/internal/telemetry"
)

// Errors returned by this package.
var (
	// ErrDuplicateSubscriber indicates a second registration of a name.
	ErrDuplicateSubscriber = errors.New("commitbus: duplicate subscriber")
	// ErrUnknownSubscriber indicates a registered subscriber with no blob in
	// a restore.
	ErrUnknownSubscriber = errors.New("commitbus: unknown subscriber")
	// ErrOutOfOrder indicates a publish whose height is not head+1.
	ErrOutOfOrder = errors.New("commitbus: commit event out of order")
)

// CommitEvent is one committed block and everything execution produced
// for it: the transactions, their receipts, and (inside the receipts) the
// contract events the derived indexes consume.
type CommitEvent struct {
	// Height is the committed block's height.
	Height uint64
	// Block is the committed block (header + txs).
	Block *ledger.Block
	// Receipts holds one execution receipt per transaction, in order.
	Receipts []contract.Receipt
}

// Subscriber consumes ordered commit events and supports checkpointing.
// OnCommit is invoked with the platform commit lock held, in chain order;
// implementations must not re-enter the bus.
type Subscriber interface {
	// Name identifies the subscriber (stable across restarts: it keys the
	// snapshot blob inside a checkpoint).
	Name() string
	// OnCommit applies one committed block. An error is recorded in the
	// bus stats (the subscriber lags) but does not stop delivery to
	// others.
	OnCommit(ev CommitEvent) error
	// Snapshot serializes the subscriber's derived state.
	Snapshot() ([]byte, error)
	// Restore replaces the subscriber's state from a Snapshot blob.
	Restore(data []byte) error
}

// SubscriberStats is the observable health of one subscriber.
type SubscriberStats struct {
	Name string `json:"name"`
	// Delivered counts successfully applied events.
	Delivered uint64 `json:"delivered"`
	// Errors counts failed OnCommit calls.
	Errors uint64 `json:"errors"`
	// Lag is the number of published events the subscriber has not
	// successfully applied (errors since the last restore point).
	Lag uint64 `json:"lag"`
	// LastHeight is the height of the last successfully applied event.
	LastHeight uint64 `json:"lastHeight"`
	// LastError is the most recent OnCommit error, if any.
	LastError string `json:"lastError,omitempty"`
}

// entry is one registered subscriber plus its accounting. The registry
// instruments (nil until Bus.Instrument) carry the same counts as the
// plain fields — the fields feed the JSON Stats API, the instruments
// feed /v1/metrics — plus the per-subscriber handle-time histogram that
// only exists registry-side.
type entry struct {
	sub        Subscriber
	delivered  uint64
	errors     uint64
	lastHeight uint64
	lastErr    string

	tmDelivered *telemetry.Counter
	tmErrors    *telemetry.Counter
	tmHandleSec *telemetry.Histogram
	tmLag       *telemetry.Gauge
}

// Bus fans committed blocks out to registered subscribers.
type Bus struct {
	mu     sync.RWMutex
	subs   []*entry
	byName map[string]*entry
	// events counts publishes since creation or the last Restore.
	events uint64
	// head is the height of the last published (or restored-to) event.
	head uint64
	// primed reports whether head is meaningful (at least one publish or
	// restore happened); it disambiguates height 0.
	primed bool

	// Registry-backed accounting (see Instrument).
	tmEvents    *telemetry.Counter
	tmDelivered *telemetry.CounterVec
	tmErrors    *telemetry.CounterVec
	tmHandleSec *telemetry.HistogramVec
	tmLag       *telemetry.GaugeVec
}

// New creates an empty bus.
func New() *Bus {
	return &Bus{byName: make(map[string]*entry)}
}

// Instrument registers the bus's per-subscriber delivery accounting on
// reg (nil disables): delivered/error counters, the handle-time
// histogram, and a lag gauge, all labeled by subscriber name. Call
// before or after Register, in either order, but before the first
// Publish.
func (b *Bus) Instrument(reg *telemetry.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tmEvents = reg.Counter("trustnews_commitbus_events_total", "Commit events published to the bus.")
	b.tmDelivered = reg.CounterVec("trustnews_commitbus_delivered_total", "Commit events successfully applied, by subscriber.", "subscriber")
	b.tmErrors = reg.CounterVec("trustnews_commitbus_errors_total", "Failed OnCommit calls, by subscriber.", "subscriber")
	b.tmHandleSec = reg.HistogramVec("trustnews_commitbus_handle_seconds", "OnCommit handle time, by subscriber.", nil, "subscriber")
	b.tmLag = reg.GaugeVec("trustnews_commitbus_lag", "Published events not yet successfully applied, by subscriber.", "subscriber")
	for _, e := range b.subs {
		b.bindEntryMetrics(e)
	}
}

// bindEntryMetrics caches one subscriber's instrument handles so the
// Publish hot path never touches the labeled-family maps. Caller holds
// b.mu; a no-op before Instrument.
func (b *Bus) bindEntryMetrics(e *entry) {
	name := e.sub.Name()
	e.tmDelivered = b.tmDelivered.With(name)
	e.tmErrors = b.tmErrors.With(name)
	e.tmHandleSec = b.tmHandleSec.With(name)
	e.tmLag = b.tmLag.With(name)
}

// Register adds a subscriber. Delivery order follows registration order.
func (b *Bus) Register(s Subscriber) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.byName[s.Name()]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateSubscriber, s.Name())
	}
	e := &entry{sub: s}
	b.bindEntryMetrics(e)
	b.subs = append(b.subs, e)
	b.byName[s.Name()] = e
	return nil
}

// Subscribers returns the registered names in delivery order.
func (b *Bus) Subscribers() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, len(b.subs))
	for i, e := range b.subs {
		out[i] = e.sub.Name()
	}
	return out
}

// Publish delivers one commit event to every subscriber in registration
// order. Events must arrive in chain order (height head+1); the first
// out-of-order event is rejected before any delivery. Subscriber errors
// do not stop delivery to later subscribers; they are recorded in the
// stats and joined into the returned error.
func (b *Bus) Publish(ev CommitEvent) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.primed && ev.Height != b.head+1 {
		return fmt.Errorf("%w: got height %d want %d", ErrOutOfOrder, ev.Height, b.head+1)
	}
	if !b.primed && ev.Height != 0 {
		return fmt.Errorf("%w: got height %d want 0", ErrOutOfOrder, ev.Height)
	}
	b.events++
	b.head = ev.Height
	b.primed = true
	b.tmEvents.Inc()
	var errs []error
	for _, e := range b.subs {
		var err error
		if e.tmHandleSec != nil {
			start := time.Now()
			err = e.sub.OnCommit(ev)
			e.tmHandleSec.Observe(time.Since(start).Seconds())
		} else {
			err = e.sub.OnCommit(ev)
		}
		if err != nil {
			e.errors++
			e.lastErr = err.Error()
			e.tmErrors.Inc()
			e.tmLag.Set(float64(b.events - e.delivered))
			errs = append(errs, fmt.Errorf("commitbus: %s at height %d: %w", e.sub.Name(), ev.Height, err))
			continue
		}
		e.delivered++
		e.lastHeight = ev.Height
		e.tmDelivered.Inc()
		e.tmLag.Set(float64(b.events - e.delivered))
	}
	return errors.Join(errs...)
}

// Head returns the height of the last published event and whether any
// event has been published (or restored to) yet.
func (b *Bus) Head() (uint64, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.head, b.primed
}

// Stats returns a snapshot of per-subscriber accounting in delivery
// order.
func (b *Bus) Stats() []SubscriberStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]SubscriberStats, 0, len(b.subs))
	for _, e := range b.subs {
		out = append(out, SubscriberStats{
			Name:       e.sub.Name(),
			Delivered:  e.delivered,
			Errors:     e.errors,
			Lag:        b.events - e.delivered,
			LastHeight: e.lastHeight,
			LastError:  e.lastErr,
		})
	}
	return out
}

// Snapshot serializes every subscriber's state, keyed by name. The caller
// must ensure no Publish runs concurrently (the platform holds its commit
// lock), so the blobs form one consistent cut of the derived state.
func (b *Bus) Snapshot() (map[string][]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string][]byte, len(b.subs))
	for _, e := range b.subs {
		blob, err := e.sub.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("commitbus: snapshot %s: %w", e.sub.Name(), err)
		}
		out[e.sub.Name()] = blob
	}
	return out, nil
}

// Restore replaces every subscriber's state from a Snapshot map taken at
// the given chain height (the number of blocks the snapshot covers).
// Every registered subscriber must have a blob — a checkpoint written
// before a subscriber existed is rejected so the caller can fall back to
// full replay — while a blob no registered subscriber claims, left by one
// since removed, is ignored. On success the accounting is reset and the
// bus accepts the next publish at exactly height `height`.
func (b *Bus) Restore(blobs map[string][]byte, height uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.subs {
		if _, ok := blobs[e.sub.Name()]; !ok {
			return fmt.Errorf("%w: no snapshot for %s", ErrUnknownSubscriber, e.sub.Name())
		}
	}
	for _, e := range b.subs {
		if err := e.sub.Restore(blobs[e.sub.Name()]); err != nil {
			return fmt.Errorf("commitbus: restore %s: %w", e.sub.Name(), err)
		}
	}
	b.events = 0
	if height == 0 {
		b.head, b.primed = 0, false
	} else {
		b.head, b.primed = height-1, true
	}
	for _, e := range b.subs {
		e.delivered, e.errors, e.lastErr = 0, 0, ""
		e.tmLag.Set(0)
		if height > 0 {
			e.lastHeight = height - 1
		} else {
			e.lastHeight = 0
		}
	}
	return nil
}
