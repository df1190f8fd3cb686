package ledger

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/keys"
	"repro/internal/merkle"
	"repro/internal/telemetry"
)

// parallelVerifyThreshold is the block size below which the pipeline stays
// serial: goroutine fan-out costs more than it saves on tiny blocks.
const parallelVerifyThreshold = 16

// Verifier is the block-verification pipeline: a worker pool that fans
// per-transaction signature checks and encodings across GOMAXPROCS, backed
// by an optional verified-signature cache so transactions already checked
// at mempool admission (or in an earlier consensus step) skip the ed25519
// operation entirely. A nil *Verifier is valid and degrades to the serial,
// uncached baseline, which keeps Tx.Verify and the pipeline on one code
// path.
//
// The cache can never be poisoned through field mutation: VerifyTx
// re-serializes the transaction's current fields and re-hashes them before
// the lookup, so a hit vouches only for the exact bytes in hand — the
// structural checks and the content hash always run; only the ed25519
// verify is ever skipped.
type Verifier struct {
	workers int
	cache   *SigCache
	tm      verifierMetrics
}

// verifierMetrics holds the pipeline's cached instrument handles (nil
// until Instrument; all methods nil-safe).
type verifierMetrics struct {
	hits     *telemetry.Counter
	misses   *telemetry.Counter
	blockSec *telemetry.Histogram
	width    *telemetry.Gauge
	entries  *telemetry.Gauge
}

// NewVerifier creates a pipeline over the given cache (nil disables
// signature caching) with the given worker-pool width (<=0 means
// GOMAXPROCS).
func NewVerifier(cache *SigCache, workers int) *Verifier {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Verifier{workers: workers, cache: cache}
}

// Cache exposes the verifier's signature cache (nil when uncached).
func (v *Verifier) Cache() *SigCache { return v.cache }

// Workers returns the pool width.
func (v *Verifier) Workers() int { return v.workers }

// Instrument registers the pipeline's metrics on reg (nil disables).
func (v *Verifier) Instrument(reg *telemetry.Registry) {
	cached := reg.CounterVec("trustnews_verify_sigcache_total", "Signature-cache lookups during verification, by outcome.", "outcome")
	v.tm = verifierMetrics{
		hits:     cached.With("hit"),
		misses:   cached.With("miss"),
		blockSec: reg.Histogram("trustnews_verify_block_seconds", "Wall time to validate one block body (tx root + signatures).", nil),
		width:    reg.Gauge("trustnews_verify_workers", "Verification worker-pool width."),
		entries:  reg.Gauge("trustnews_verify_sigcache_entries", "Verified signatures resident in the cache (transactions in flight)."),
	}
	v.tm.width.Set(float64(v.workers))
	v.tm.entries.Set(float64(v.cache.Len()))
}

// Forget drops the cached signatures of transactions that left flight:
// committed in a block the chain has taken, or dropped by the mempool.
// Nothing verifies those bytes again, so keeping their ids only costs
// memory.
func (v *Verifier) Forget(txs ...*Tx) {
	if v == nil || v.cache == nil {
		return
	}
	for _, t := range txs {
		v.cache.Forget(t.ID())
	}
	v.tm.entries.Set(float64(v.cache.Len()))
}

// CacheStats returns cumulative signature-cache hits and misses (zero
// without Instrument).
func (v *Verifier) CacheStats() (hits, misses uint64) {
	if v == nil {
		return 0, 0
	}
	return v.tm.hits.Value(), v.tm.misses.Value()
}

// VerifyTx checks structural validity and the signature/sender binding of
// one transaction, consulting the verified-signature cache when present.
// Every byte that feeds the cache key is re-serialized from the
// transaction's current fields — never from the memo — so only the ed25519
// operation itself is ever skipped.
func (v *Verifier) VerifyTx(t *Tx) error {
	if t.Kind == "" {
		return ErrTxEmptyKind
	}
	if len(t.Payload) > MaxTxPayloadBytes {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrTxPayloadTooLarge, len(t.Payload), MaxTxPayloadBytes)
	}
	if len(t.Sig) == 0 || len(t.PubKey) == 0 {
		return ErrTxUnsigned
	}
	if keys.AddressFromPub(t.PubKey) != t.Sender {
		return ErrTxSenderMismatch
	}
	buf := signingBufs.Get().(*[]byte)
	signing := t.appendSigning((*buf)[:0])
	err := v.verifySigning(t, signing)
	*buf = signing[:0]
	signingBufs.Put(buf)
	return err
}

// signingBufs recycles the buffers VerifyTx serializes signing bytes into:
// they are hashed and checked, never kept.
var signingBufs = sync.Pool{New: func() any { return new([]byte) }}

// verifySigning checks t's signature over signing, its signing bytes as
// VerifyTx just serialized them, through the cache.
func (v *Verifier) verifySigning(t *Tx, signing []byte) error {
	useCache := v != nil && v.cache != nil
	var id TxID
	if useCache {
		id = hashTx(signing, t.PubKey, t.Sig)
		if v.cache.Contains(id) {
			v.tm.hits.Inc()
			return nil
		}
		v.tm.misses.Inc()
	}
	if err := keys.Verify(t.PubKey, signing, t.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrTxBadSignature, err)
	}
	if useCache {
		v.cache.Add(id)
		v.tm.entries.Set(float64(v.cache.Len()))
	}
	return nil
}

// ValidateBody checks a block's internal consistency — header tx root and
// per-transaction validity — like Block.ValidateBody, but through the
// cache-aware worker pool. Check order matches the serial baseline: tx
// root first (cheap hashing, fails fast on tampered bodies), signatures
// second.
func (v *Verifier) ValidateBody(b *Block) error {
	if v == nil {
		return b.ValidateBody()
	}
	var start time.Time
	if v.tm.blockSec != nil {
		start = time.Now()
	}
	err := v.validateBody(b)
	if v.tm.blockSec != nil {
		v.tm.blockSec.Observe(time.Since(start).Seconds())
	}
	return err
}

func (v *Verifier) validateBody(b *Block) error {
	n := len(b.Txs)
	workers := v.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < parallelVerifyThreshold {
		if got := TxRoot(b.Txs); got != b.Header.TxRoot {
			return fmt.Errorf("%w: header %s body %s", ErrBlockBadTxRoot, b.Header.TxRoot.Short(), got.Short())
		}
		for i, t := range b.Txs {
			if err := v.VerifyTx(t); err != nil {
				return fmt.Errorf("%w: tx %d: %v", ErrBlockBadTx, i, err)
			}
		}
		return nil
	}

	// Phase 1: encodings (memo-served for txs this node built or decoded)
	// and the Merkle root, leaf hashing fanned across the pool.
	leaves := make([][]byte, n)
	v.each(workers, n, func(i int) bool {
		leaves[i] = b.Txs[i].Encode()
		return true
	})
	if got := merkle.RootParallel(leaves, workers); got != b.Header.TxRoot {
		return fmt.Errorf("%w: header %s body %s", ErrBlockBadTxRoot, b.Header.TxRoot.Short(), got.Short())
	}

	// Phase 2: per-tx verification with fail-fast cancellation. The first
	// failure (lowest index wins for determinism) stops the pool.
	errs := make([]error, n)
	v.each(workers, n, func(i int) bool {
		if err := v.VerifyTx(b.Txs[i]); err != nil {
			errs[i] = err
			return false
		}
		return true
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%w: tx %d: %v", ErrBlockBadTx, i, err)
		}
	}
	return nil
}

// each runs fn(0..n-1) across the pool with work stealing; fn returning
// false cancels outstanding work (already-started calls finish).
func (v *Verifier) each(workers, n int, fn func(int) bool) {
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if !fn(i) {
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
}
