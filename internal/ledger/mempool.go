package ledger

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// Errors returned by the mempool.
var (
	// ErrMempoolFull indicates the pool reached capacity.
	ErrMempoolFull = errors.New("ledger: mempool full")
	// ErrDuplicateTx indicates a transaction already pending.
	ErrDuplicateTx = errors.New("ledger: duplicate transaction")
	// ErrStaleNonce indicates a nonce at or below the committed nonce.
	ErrStaleNonce = errors.New("ledger: stale nonce")
)

// DefaultMempoolPayloadBytes is the default admission-time payload cap —
// much tighter than the consensus hard cap, since a well-behaved client
// publishes article bodies off-chain and sends only small references.
const DefaultMempoolPayloadBytes = 64 << 10

// Mempool holds verified, uncommitted transactions and assembles
// nonce-ordered batches for the block proposer.
//
// Internally the pool is partitioned into sender-hash lanes, each with
// its own lock, pending map and per-sender queues: concurrent Add calls
// from senders routed to different lanes never contend on the same
// mutex, which is what keeps admission off the critical path when the
// execution side also runs sharded lanes. A single-lane pool (the
// NewMempool default) behaves exactly as the original flat pool did;
// batch assembly is lane-count independent (globally sorted senders), so
// block contents do not depend on the lane configuration.
type Mempool struct {
	// mu guards the pool-wide configuration (capacity, payload cap,
	// verifier, instruments). Transaction state lives in the lanes.
	mu         sync.Mutex
	cap        int
	maxPayload int
	lanes      []*mempoolLane
	// count is the pool-wide pending total; admission reserves a slot
	// before taking any lane lock so the capacity bound holds across
	// lanes without a global transaction lock.
	count atomic.Int64
	chain *Chain
	// verifier handles admission verification. It defaults to the chain's
	// pipeline, so a signature verified here is cached and block
	// validation later skips the ed25519 work for the same bytes. Nil
	// falls back to the serial, uncached Tx.Verify semantics.
	verifier *Verifier
	tm       mempoolMetrics
}

// mempoolLane is one sender-hash partition of the pending set.
type mempoolLane struct {
	mu sync.Mutex
	// pending maps each pending transaction to when it was admitted (the
	// zero time on an uninstrumented pool, which reads no clock).
	pending map[TxID]time.Time
	// bySender keeps pending txs per sender for nonce-ordered selection.
	// A sender's transactions live entirely in one lane.
	bySender map[string][]*Tx
}

// mempoolMetrics holds the pool's cached instrument handles. Every
// handle is nil until Instrument is called; all methods are nil-safe,
// so the uninstrumented cost is one branch per site.
type mempoolMetrics struct {
	admitted  *telemetry.Counter
	rejected  *telemetry.CounterVec
	committed *telemetry.Counter
	pruned    *telemetry.Counter
	occupancy *telemetry.Gauge
	verifySec *telemetry.Histogram
	waitSec   *telemetry.Histogram
}

// Instrument registers the pool's metrics on reg (nil disables). Call
// before the pool takes traffic.
func (m *Mempool) Instrument(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tm = mempoolMetrics{
		admitted:  reg.Counter("trustnews_mempool_admitted_total", "Transactions accepted into the pool."),
		rejected:  reg.CounterVec("trustnews_mempool_rejected_total", "Transactions rejected at admission, by reason.", "reason"),
		committed: reg.Counter("trustnews_mempool_committed_total", "Transactions removed after block commit."),
		pruned:    reg.Counter("trustnews_mempool_pruned_total", "Stale-nonce transactions evicted during pruning."),
		occupancy: reg.Gauge("trustnews_mempool_occupancy", "Transactions currently pending."),
		verifySec: reg.Histogram("trustnews_mempool_verify_seconds", "Signature/shape verification time per transaction.", nil),
		waitSec:   reg.Histogram("trustnews_mempool_wait_seconds", "Time a committed transaction spent pending, admission to removal by its block.", nil),
	}
}

// NewMempool creates a single-lane pool bounded at capacity (0 means
// 4096). Admission verification shares the chain's verification pipeline
// (and therefore its signature cache) when a chain is given.
func NewMempool(chain *Chain, capacity int) *Mempool {
	return NewMempoolLanes(chain, capacity, 1)
}

// NewMempoolLanes creates a pool partitioned into the given number of
// sender-hash lanes (clamped to >= 1) and bounded at capacity pool-wide
// (0 means 4096). One lane is semantically identical to NewMempool;
// more lanes only reduce admission lock contention.
func NewMempoolLanes(chain *Chain, capacity, lanes int) *Mempool {
	if capacity <= 0 {
		capacity = 4096
	}
	if lanes < 1 {
		lanes = 1
	}
	m := &Mempool{
		cap:        capacity,
		maxPayload: DefaultMempoolPayloadBytes,
		lanes:      make([]*mempoolLane, lanes),
		chain:      chain,
	}
	for i := range m.lanes {
		m.lanes[i] = &mempoolLane{
			pending:  make(map[TxID]time.Time),
			bySender: make(map[string][]*Tx),
		}
	}
	if chain != nil {
		m.verifier = chain.Verifier()
	}
	return m
}

// Lanes returns the number of sender-hash lanes.
func (m *Mempool) Lanes() int { return len(m.lanes) }

// laneOf routes a sender to its lane.
func (m *Mempool) laneOf(sender string) *mempoolLane {
	return m.lanes[store.ShardOf(sender, len(m.lanes))]
}

// SetVerifier swaps the admission verification pipeline (nil restores the
// serial, uncached baseline). Call before the pool takes traffic.
func (m *Mempool) SetVerifier(v *Verifier) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.verifier = v
}

// SetMaxPayloadBytes tunes the admission-time payload cap (0 restores
// the default). It is clamped to the consensus hard cap: a looser pool
// would admit transactions every validating node rejects.
func (m *Mempool) SetMaxPayloadBytes(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		n = DefaultMempoolPayloadBytes
	}
	if n > MaxTxPayloadBytes {
		n = MaxTxPayloadBytes
	}
	m.maxPayload = n
}

// Add verifies and enqueues a transaction. Admission is the single
// verification path: a signature that passes here lands in the shared
// cache, so block validation of the same bytes skips the ed25519 check.
// A transaction verified but then turned away (other than as a duplicate
// of one still pending) is not in flight, and its signature is forgotten.
func (m *Mempool) Add(t *Tx) error {
	m.mu.Lock()
	v := m.verifier
	maxPayload := m.maxPayload
	capacity := m.cap
	m.mu.Unlock()
	var start time.Time
	if m.tm.verifySec != nil {
		start = time.Now()
	}
	err := v.VerifyTx(t) // nil verifier degrades to serial Tx.Verify semantics
	if m.tm.verifySec != nil {
		m.tm.verifySec.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		m.tm.rejected.With("verify").Inc()
		return err
	}
	if len(t.Payload) > maxPayload {
		v.Forget(t)
		m.tm.rejected.With("payload").Inc()
		return fmt.Errorf("%w: %d bytes (mempool max %d)", ErrTxPayloadTooLarge, len(t.Payload), maxPayload)
	}
	// Reserve a slot before taking the lane lock; released on any
	// subsequent rejection. The pool-wide bound therefore holds without
	// serializing admission across lanes.
	if m.count.Add(1) > int64(capacity) {
		m.count.Add(-1)
		v.Forget(t)
		m.tm.rejected.With("full").Inc()
		return ErrMempoolFull
	}
	sender := t.Sender.String()
	lane := m.laneOf(sender)
	lane.mu.Lock()
	defer lane.mu.Unlock()
	id := t.ID()
	if _, ok := lane.pending[id]; ok {
		m.count.Add(-1)
		m.tm.rejected.With("duplicate").Inc()
		return fmt.Errorf("%w: %s", ErrDuplicateTx, id.Short())
	}
	if m.chain != nil && t.Nonce < m.chain.NextNonce(sender) {
		m.count.Add(-1)
		v.Forget(t)
		m.tm.rejected.With("stale_nonce").Inc()
		return fmt.Errorf("%w: sender %s nonce %d", ErrStaleNonce, t.Sender.Short(), t.Nonce)
	}
	var admitted time.Time
	if m.tm.waitSec != nil {
		admitted = time.Now()
	}
	lane.pending[id] = admitted
	lane.bySender[sender] = append(lane.bySender[sender], t)
	m.tm.admitted.Inc()
	m.tm.occupancy.Set(float64(m.count.Load()))
	return nil
}

// Size returns the number of pending transactions.
func (m *Mempool) Size() int {
	return int(m.count.Load())
}

// lockAll takes every lane lock in index order (the single lock order
// used by whole-pool operations, so lanes never deadlock against each
// other) and returns the matching unlock.
func (m *Mempool) lockAll() func() {
	for _, l := range m.lanes {
		l.mu.Lock()
	}
	return func() {
		for _, l := range m.lanes {
			l.mu.Unlock()
		}
	}
}

// Batch selects up to max transactions forming a valid nonce sequence per
// sender, starting from the chain's committed nonces. Senders are visited
// in globally sorted order for determinism, so batch contents are
// independent of the lane count.
func (m *Mempool) Batch(max int) []*Tx {
	defer m.lockAll()()
	if max <= 0 {
		max = int(m.count.Load())
	}
	byLane := make(map[string]*mempoolLane)
	senders := make([]string, 0, len(byLane))
	for _, l := range m.lanes {
		for s := range l.bySender {
			byLane[s] = l
			senders = append(senders, s)
		}
	}
	sort.Strings(senders)

	var out []*Tx
	for _, s := range senders {
		if len(out) >= max {
			break
		}
		txs := byLane[s].bySender[s]
		sort.Slice(txs, func(i, j int) bool { return txs[i].Nonce < txs[j].Nonce })
		next := uint64(0)
		if m.chain != nil {
			next = m.chain.NextNonce(s)
		}
		for _, t := range txs {
			if len(out) >= max {
				break
			}
			if t.Nonce < next {
				continue // stale, will be pruned on Remove
			}
			if t.Nonce > next {
				break // gap: later nonces unusable this block
			}
			out = append(out, t)
			next++
		}
	}
	return out
}

// Remove drops the given transactions (after commit) and prunes any
// now-stale nonces from the same senders.
func (m *Mempool) Remove(txs []*Tx) {
	m.mu.Lock()
	v := m.verifier
	m.mu.Unlock()
	defer m.lockAll()()
	removed := 0
	// pruned collects the stale-nonce evictions: they will never reach a
	// block, so their verified signatures leave the cache with them.
	var pruned []*Tx
	var now time.Time
	if m.tm.waitSec != nil {
		now = time.Now()
	}
	for _, t := range txs {
		lane := m.laneOf(t.Sender.String())
		if admitted, ok := lane.pending[t.ID()]; ok {
			m.tm.committed.Inc()
			m.tm.waitSec.Observe(now.Sub(admitted).Seconds())
			removed++
		}
		delete(lane.pending, t.ID())
	}
	for _, lane := range m.lanes {
		for s, list := range lane.bySender {
			next := uint64(0)
			if m.chain != nil {
				next = m.chain.NextNonce(s)
			}
			keep := list[:0]
			for _, t := range list {
				if _, ok := lane.pending[t.ID()]; !ok {
					continue
				}
				if t.Nonce < next {
					delete(lane.pending, t.ID())
					m.tm.pruned.Inc()
					removed++
					pruned = append(pruned, t)
					continue
				}
				keep = append(keep, t)
			}
			if len(keep) == 0 {
				delete(lane.bySender, s)
				continue
			}
			lane.bySender[s] = keep
		}
	}
	v.Forget(pruned...)
	m.count.Add(int64(-removed))
	m.tm.occupancy.Set(float64(m.count.Load()))
}
