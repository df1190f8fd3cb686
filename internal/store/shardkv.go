package store

import (
	"hash/fnv"
	"sort"
	"sync"
)

// ShardOf routes a state key to one of n shards by FNV-1a hash. It is the
// single routing function shared by the physical state partition
// (ShardedKV), the contract shard planner and the per-shard mempool
// lanes, so "which shard owns this key" has exactly one answer
// everywhere. n <= 1 always returns 0.
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}

// StateKV is the contract-state store contract: a KV plus the wholesale
// Restore used by checkpoint recovery and the change feed the state
// commitment is maintained from. MemKV and ShardedKV implement it.
type StateKV interface {
	KV
	// Restore replaces the contents with the given snapshot.
	Restore(snap map[string][]byte)
	// DrainDirty hands over what changed since the previous call (see
	// MemKV.DrainDirty).
	DrainDirty() (entries []DirtyEntry, all bool)
}

var (
	_ StateKV = (*MemKV)(nil)
	_ StateKV = (*ShardedKV)(nil)
)

// ShardedKV partitions a key-value state into n independently locked
// MemKV shards by key hash. Readers and writers touching different
// shards never contend on the same mutex, which is what lets the
// contract engine's execution lanes run against disjoint state
// partitions in parallel. The logical contents are identical to a flat
// MemKV: Keys, Snapshot and DrainDirty merge across shards, so a state
// root kept from them is byte-identical whatever the shard count.
type ShardedKV struct {
	shards []*MemKV
}

// NewShardedKV returns an empty state partitioned into n shards
// (n < 1 is clamped to 1).
func NewShardedKV(n int) *ShardedKV {
	if n < 1 {
		n = 1
	}
	s := &ShardedKV{shards: make([]*MemKV, n)}
	for i := range s.shards {
		s.shards[i] = NewMemKV()
	}
	return s
}

// Shards returns the partition width.
func (s *ShardedKV) Shards() int { return len(s.shards) }

func (s *ShardedKV) shard(key string) *MemKV {
	return s.shards[ShardOf(key, len(s.shards))]
}

// Get implements KV.
func (s *ShardedKV) Get(key string) ([]byte, error) { return s.shard(key).Get(key) }

// Put implements KV.
func (s *ShardedKV) Put(key string, val []byte) error { return s.shard(key).Put(key, val) }

// Delete implements KV.
func (s *ShardedKV) Delete(key string) error { return s.shard(key).Delete(key) }

// Keys implements KV: a prefix scan fans out to every shard (a prefix
// does not pin the hash) and merges the sorted results.
func (s *ShardedKV) Keys(prefix string) ([]string, error) {
	var out []string
	for _, sh := range s.shards {
		ks, err := sh.Keys(prefix)
		if err != nil {
			return nil, err
		}
		out = append(out, ks...)
	}
	sort.Strings(out)
	return out, nil
}

// Snapshot implements KV: shard snapshots are taken concurrently and
// merged into one flat map, so the result is indistinguishable from a
// MemKV snapshot of the same logical contents.
func (s *ShardedKV) Snapshot() (map[string][]byte, error) {
	parts := make([]map[string][]byte, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *MemKV) {
			defer wg.Done()
			parts[i], _ = sh.Snapshot() // MemKV.Snapshot cannot fail
		}(i, sh)
	}
	wg.Wait()
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(map[string][]byte, n)
	for _, p := range parts {
		for k, v := range p {
			out[k] = v
		}
	}
	return out, nil
}

// Restore replaces the contents with the given snapshot, re-routing
// every key to its shard.
func (s *ShardedKV) Restore(snap map[string][]byte) {
	parts := make([]map[string][]byte, len(s.shards))
	for i := range parts {
		parts[i] = make(map[string][]byte)
	}
	for k, v := range snap {
		parts[ShardOf(k, len(s.shards))][k] = v
	}
	for i, sh := range s.shards {
		sh.Restore(parts[i])
	}
}

// DrainDirty implements StateKV: the shards' change sets concatenated.
// A shard that lost track can only hand over its own keys, which says
// nothing about the rest of the state, so from then on every shard is
// asked for everything.
func (s *ShardedKV) DrainDirty() ([]DirtyEntry, bool) {
	var out []DirtyEntry
	all := false
	for i := 0; i < len(s.shards); i++ {
		entries, shardAll := s.shards[i].drainDirty(all)
		if shardAll && !all {
			all, out, i = true, nil, -1 // start over
			continue
		}
		out = append(out, entries...)
	}
	return out, all
}

// Close implements KV.
func (s *ShardedKV) Close() error { return nil }
