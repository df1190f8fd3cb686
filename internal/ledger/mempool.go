package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/keys"
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

// MaxMempoolPayloadBytes is the admission-time payload cap — much tighter
// than the consensus hard cap, since a well-behaved client publishes
// article bodies off-chain and sends only small references.
const MaxMempoolPayloadBytes = 64 << 10

// Mempool holds verified, uncommitted transactions and assembles
// nonce-ordered batches for the block proposer.
type Mempool struct {
	mu  sync.Mutex
	cap int
	// pending maps each pending transaction to when it was admitted (the
	// zero time on an uninstrumented pool, which reads no clock).
	pending map[TxID]time.Time
	// bySender keeps pending txs per sender for nonce-ordered selection.
	bySender map[keys.Address][]*Tx
	chain    *Chain
	// verifier handles admission verification: the chain's pipeline, so a
	// signature verified here is cached and block validation later skips
	// the ed25519 work for the same bytes. Nil (no chain) falls back to the
	// serial, uncached Tx.Verify semantics.
	verifier *Verifier
	tm       mempoolMetrics
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
	// admitCPU is the thread CPU admission verification burned.
	admitCPU *telemetry.CPUCounter
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
		admitCPU:  reg.CPUCounter("trustnews_mempool_admit_cpu_seconds_total", "CPU time spent verifying transactions at admission (signature and shape), local and relayed."),
	}
}

// NewMempool creates a pool bounded at capacity (0 means 4096). Admission
// verification shares the chain's verification pipeline (and therefore its
// signature cache) when a chain is given.
func NewMempool(chain *Chain, capacity int) *Mempool {
	if capacity <= 0 {
		capacity = 4096
	}
	m := &Mempool{
		cap:      capacity,
		pending:  make(map[TxID]time.Time),
		bySender: make(map[keys.Address][]*Tx),
		chain:    chain,
	}
	if chain != nil {
		m.verifier = chain.Verifier()
	}
	return m
}

// Add verifies and enqueues a transaction. Admission is the single
// verification path: a signature that passes here lands in the shared
// cache, so block validation of the same bytes skips the ed25519 check.
// A transaction verified but then turned away (other than as a duplicate
// of one still pending) is not in flight, and its signature is forgotten.
func (m *Mempool) Add(t *Tx) error {
	v := m.verifier
	var start time.Time
	if m.tm.verifySec != nil {
		start = time.Now()
	}
	var err error
	m.tm.admitCPU.Time(func() { err = v.VerifyTx(t) }) // nil verifier degrades to serial Tx.Verify semantics
	if m.tm.verifySec != nil {
		m.tm.verifySec.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		m.tm.rejected.With("verify").Inc()
		return err
	}
	if len(t.Payload) > MaxMempoolPayloadBytes {
		v.Forget(t)
		m.tm.rejected.With("payload").Inc()
		return fmt.Errorf("%w: %d bytes (mempool max %d)", ErrTxPayloadTooLarge, len(t.Payload), MaxMempoolPayloadBytes)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) >= m.cap {
		v.Forget(t)
		m.tm.rejected.With("full").Inc()
		return ErrMempoolFull
	}
	id := t.ID()
	if _, ok := m.pending[id]; ok {
		m.tm.rejected.With("duplicate").Inc()
		return fmt.Errorf("%w: %s", ErrDuplicateTx, id.Short())
	}
	sender := t.Sender
	if m.chain != nil && t.Nonce < m.chain.nextNonce(sender) {
		v.Forget(t)
		m.tm.rejected.With("stale_nonce").Inc()
		return fmt.Errorf("%w: sender %s nonce %d", ErrStaleNonce, t.Sender.Short(), t.Nonce)
	}
	var admitted time.Time
	if m.tm.waitSec != nil {
		admitted = time.Now()
	}
	m.pending[id] = admitted
	m.bySender[sender] = append(m.bySender[sender], t)
	m.tm.admitted.Inc()
	m.tm.occupancy.Set(float64(len(m.pending)))
	return nil
}

// Size returns the number of pending transactions.
func (m *Mempool) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Batch selects up to max transactions forming a valid nonce sequence per
// sender, starting from the chain's committed nonces. Senders are visited
// in sorted order for determinism.
func (m *Mempool) Batch(max int) []*Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	if max <= 0 {
		max = len(m.pending)
	}
	senders := make([]keys.Address, 0, len(m.bySender))
	for s := range m.bySender {
		senders = append(senders, s)
	}
	slices.SortFunc(senders, func(a, b keys.Address) int { return bytes.Compare(a[:], b[:]) })

	var out []*Tx
	for _, s := range senders {
		if len(out) >= max {
			break
		}
		txs := m.bySender[s]
		sort.Slice(txs, func(i, j int) bool { return txs[i].Nonce < txs[j].Nonce })
		next := uint64(0)
		if m.chain != nil {
			next = m.chain.nextNonce(s)
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
	defer m.mu.Unlock()
	// pruned collects the stale-nonce evictions: they will never reach a
	// block, so their verified signatures leave the cache with them.
	var pruned []*Tx
	var now time.Time
	if m.tm.waitSec != nil {
		now = time.Now()
	}
	for _, t := range txs {
		if admitted, ok := m.pending[t.ID()]; ok {
			m.tm.committed.Inc()
			m.tm.waitSec.Observe(now.Sub(admitted).Seconds())
		}
		delete(m.pending, t.ID())
	}
	for s, list := range m.bySender {
		next := uint64(0)
		if m.chain != nil {
			next = m.chain.nextNonce(s)
		}
		keep := list[:0]
		for _, t := range list {
			if _, ok := m.pending[t.ID()]; !ok {
				continue
			}
			if t.Nonce < next {
				delete(m.pending, t.ID())
				m.tm.pruned.Inc()
				pruned = append(pruned, t)
				continue
			}
			keep = append(keep, t)
		}
		if len(keep) == 0 {
			delete(m.bySender, s)
			continue
		}
		m.bySender[s] = keep
	}
	m.verifier.Forget(pruned...)
	m.tm.occupancy.Set(float64(len(m.pending)))
}
