package ledger

import (
	"sync"
	"sync/atomic"
)

// DefaultSigCacheCapacity bounds the verified-signature set when the
// caller passes 0. The set holds in-flight transactions only (see
// SigCache), so the bound is a ceiling for a full mempool, not memory
// paid up front.
const DefaultSigCacheCapacity = 1 << 16

// sigCacheShards is the shard count (power of two; shard chosen by the
// first id byte, which is uniform since ids are SHA-256 outputs).
const sigCacheShards = 16

// SigCache is a bounded, sharded set of transaction ids whose ed25519
// signatures have already been verified. The id covers the exact bytes
// that were verified — signing surface, public key and signature — so a
// hit proves this precise tuple passed keys.Verify at some point.
//
// An id is resident while its transaction is in flight: mempool admission
// or proposal validation adds it, and it is forgotten once nothing will
// verify those bytes again — Chain.Append has taken the block, or the
// mempool dropped the transaction. The set therefore follows the
// mempool's occupancy and allocates as it fills; at capacity an arbitrary
// resident id makes room (every resident id is in flight, none is a better
// victim than another).
//
// The cache is an accelerator, never a trust root: consumers must re-hash
// the transaction's current bytes before the lookup (Verifier.VerifyTx
// does), so an entry can only ever vouch for bytes that hash to it. All
// methods are nil-safe so an uncached pipeline costs one branch.
type SigCache struct {
	per    int // capacity of one shard
	n      atomic.Int64
	shards [sigCacheShards]sigShard
}

type sigShard struct {
	mu sync.Mutex
	m  map[TxID]struct{}
}

// NewSigCache creates a cache bounded at capacity ids across all shards
// (0 means DefaultSigCacheCapacity).
func NewSigCache(capacity int) *SigCache {
	if capacity <= 0 {
		capacity = DefaultSigCacheCapacity
	}
	return &SigCache{per: (capacity + sigCacheShards - 1) / sigCacheShards}
}

func (c *SigCache) shard(id TxID) *sigShard {
	return &c.shards[id[0]&(sigCacheShards-1)]
}

// Contains reports whether id's signature was previously verified.
func (c *SigCache) Contains(id TxID) bool {
	if c == nil {
		return false
	}
	s := c.shard(id)
	s.mu.Lock()
	_, ok := s.m[id]
	s.mu.Unlock()
	return ok
}

// Add records a verified id, evicting one of the shard's entries at
// capacity.
func (c *SigCache) Add(id TxID) {
	if c == nil {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; ok {
		return
	}
	if s.m == nil {
		s.m = make(map[TxID]struct{})
	}
	if len(s.m) >= c.per {
		for victim := range s.m {
			delete(s.m, victim)
			c.n.Add(-1)
			break
		}
	}
	s.m[id] = struct{}{}
	c.n.Add(1)
}

// Forget drops an id whose transaction left flight. Unknown ids are a
// no-op.
func (c *SigCache) Forget(id TxID) {
	if c == nil {
		return
	}
	s := c.shard(id)
	s.mu.Lock()
	if _, ok := s.m[id]; ok {
		delete(s.m, id)
		c.n.Add(-1)
	}
	s.mu.Unlock()
}

// Len returns the number of resident ids.
func (c *SigCache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.n.Load())
}
