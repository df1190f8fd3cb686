package store

import (
	"fmt"
	"sort"
	"sync"
)

// MemKV is the in-memory map the contract state used to live in, kept as
// the oracle the LSM is tested against. Beside the data it remembers which
// keys changed since the last DrainDirty, the change feed the contract
// engine keeps its state trie from.
type MemKV struct {
	mu   sync.RWMutex
	data map[string][]byte
	// dirty holds the keys put or deleted since the last drain, each with
	// its stored value (nil: deleted). Once it covers more than half the
	// state — or Restore replaces the contents — it is dropped for
	// allDirty, "hand over everything".
	dirty    map[string][]byte
	allDirty bool
}

var _ KV = (*MemKV)(nil)

// NewMemKV returns an empty in-memory KV store.
func NewMemKV() *MemKV { return &MemKV{data: make(map[string][]byte)} }

// Get implements KV.
func (m *MemKV) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: key %q", ErrNotFound, key)
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Put implements KV.
func (m *MemKV) Put(key string, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[key] = cp
	m.markDirty(key, cp)
	return nil
}

// Delete implements KV.
func (m *MemKV) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[key]; ok {
		delete(m.data, key)
		m.markDirty(key, nil)
	}
	return nil
}

// markDirty records a changed key with its stored value, nil for a
// delete. Caller holds m.mu.
func (m *MemKV) markDirty(key string, stored []byte) {
	if m.allDirty {
		return
	}
	if m.dirty == nil {
		m.dirty = make(map[string][]byte)
	}
	m.dirty[key] = stored
	if 2*len(m.dirty) > len(m.data) {
		m.dirty, m.allDirty = nil, true
	}
}

// DrainDirty returns the keys changed since the previous call with their
// current values and forgets them. all reports that change tracking was
// abandoned meanwhile: the entries are then every live key.
func (m *MemKV) DrainDirty() (entries []DirtyEntry, all bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	all = m.allDirty
	if all {
		entries = make([]DirtyEntry, 0, len(m.data))
		for k, v := range m.data {
			entries = append(entries, DirtyEntry{Key: k, Val: v, Live: true})
		}
	} else {
		entries = make([]DirtyEntry, 0, len(m.dirty))
		for k, v := range m.dirty {
			entries = append(entries, DirtyEntry{Key: k, Val: v, Live: v != nil})
		}
	}
	m.dirty, m.allDirty = nil, false
	return entries, all
}

// Keys implements KV.
func (m *MemKV) Keys(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for k := range m.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Snapshot implements KV.
func (m *MemKV) Snapshot() (map[string][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string][]byte, len(m.data))
	for k, v := range m.data {
		cp := make([]byte, len(v))
		copy(cp, v)
		out[k] = cp
	}
	return out, nil
}

// Restore replaces the contents with the given snapshot.
func (m *MemKV) Restore(snap map[string][]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirty, m.allDirty = nil, true
	m.data = make(map[string][]byte, len(snap))
	for k, v := range snap {
		cp := make([]byte, len(v))
		copy(cp, v)
		m.data[k] = cp
	}
}

// Close implements KV.
func (m *MemKV) Close() error { return nil }
