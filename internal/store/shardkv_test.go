package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestShardOfStableAndInRange(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("key-%d", i)
			s := ShardOf(k, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%q,%d)=%d out of range", k, n, s)
			}
			if s != ShardOf(k, n) {
				t.Fatalf("ShardOf(%q,%d) unstable", k, n)
			}
		}
	}
	if ShardOf("anything", 0) != 0 || ShardOf("anything", -3) != 0 {
		t.Fatal("n <= 1 must route to shard 0")
	}
}

// TestShardedKVMatchesFlat drives identical random operations into a
// flat MemKV and sharded stores of several widths: Get/Keys/Snapshot
// must be indistinguishable, which is what keeps state roots independent
// of the shard count.
func TestShardedKVMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	flat := NewMemKV()
	sharded := []*ShardedKV{NewShardedKV(1), NewShardedKV(4), NewShardedKV(7)}
	stores := []KV{flat}
	for _, s := range sharded {
		stores = append(stores, s)
	}
	for op := 0; op < 500; op++ {
		k := fmt.Sprintf("ns%d/key%d", rng.Intn(3), rng.Intn(40))
		switch rng.Intn(3) {
		case 0, 1:
			v := []byte(fmt.Sprintf("v%d", op))
			for _, s := range stores {
				if err := s.Put(k, v); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			for _, s := range stores {
				_ = s.Delete(k)
			}
		}
	}
	want, _ := flat.Snapshot()
	wantKeys, _ := flat.Keys("ns1/")
	for i, s := range sharded {
		got, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sharded[%d] snapshot diverges from flat", i)
		}
		gotKeys, err := s.Keys("ns1/")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotKeys, wantKeys) {
			t.Fatalf("sharded[%d] Keys=%v want %v", i, gotKeys, wantKeys)
		}
		for k, v := range want {
			gv, err := s.Get(k)
			if err != nil || !bytes.Equal(gv, v) {
				t.Fatalf("sharded[%d] Get(%q)=%q,%v want %q", i, k, gv, err, v)
			}
		}
	}
}

// TestShardedKVRestore restores a snapshot taken from one width into
// another: contents must re-route cleanly.
func TestShardedKVRestore(t *testing.T) {
	src := NewShardedKV(3)
	for i := 0; i < 50; i++ {
		if err := src.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := src.Snapshot()
	dst := NewShardedKV(5)
	if err := dst.Put("stale", []byte("x")); err != nil {
		t.Fatal(err)
	}
	dst.Restore(snap)
	got, _ := dst.Snapshot()
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("restore did not reproduce the snapshot")
	}
	if _, err := dst.Get("stale"); err == nil {
		t.Fatal("restore must drop prior contents")
	}
}

// drained applies one DrainDirty to a model of what earlier drains told
// the caller, the way the contract engine keeps its state trie.
func drained(kv StateKV, model map[string]string) (n int, all bool) {
	entries, all := kv.DrainDirty()
	if all {
		clear(model)
	}
	for _, e := range entries {
		if e.Live {
			model[e.Key] = string(e.Val)
		} else {
			delete(model, e.Key)
		}
	}
	return len(entries), all
}

// TestDrainDirtyTracksChanges pins the change feed the state commitment
// is kept from: a drain reports exactly what changed since the last one;
// once the changes cover more than half of what the store holds, or
// Restore replaced the contents, it reports every live key instead and
// says so — on a ShardedKV even when only one shard lost track.
func TestDrainDirtyTracksChanges(t *testing.T) {
	for name, kv := range map[string]StateKV{"flat": NewMemKV(), "sharded": NewShardedKV(4)} {
		t.Run(name, func(t *testing.T) {
			model := make(map[string]string)
			check := func(step string) {
				t.Helper()
				snap, _ := kv.Snapshot()
				if len(snap) != len(model) {
					t.Fatalf("%s: model holds %d keys, store %d", step, len(model), len(snap))
				}
				for k, v := range snap {
					if model[k] != string(v) {
						t.Fatalf("%s: model has %q=%q, store %q", step, k, model[k], v)
					}
				}
			}
			for i := 0; i < 64; i++ {
				_ = kv.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
			}
			if n, all := drained(kv, model); n != 64 || !all {
				t.Fatalf("first drain: %d entries, all=%v; want all 64 keys of a store filled from empty", n, all)
			}
			check("after load")

			_ = kv.Put("k1", []byte("rewritten"))
			_ = kv.Put("k1", nil) // live, empty
			_ = kv.Delete("k2")
			_ = kv.Delete("never-there")
			if n, all := drained(kv, model); n != 2 || all {
				t.Fatalf("small write set: %d entries, all=%v; want k1 and k2 only", n, all)
			}
			check("after small write set")
			if n, _ := drained(kv, model); n != 0 {
				t.Fatalf("drain with nothing changed returned %d entries", n)
			}

			// Delete most of the state: the changes dwarf what is left.
			for i := 0; i < 60; i++ {
				_ = kv.Delete(fmt.Sprintf("k%d", i))
			}
			if n, all := drained(kv, model); !all || n != 4 {
				t.Fatalf("mass delete: %d entries, all=%v; want all 4 survivors", n, all)
			}
			check("after mass delete")

			kv.Restore(map[string][]byte{"r1": []byte("a"), "r2": []byte("b")})
			_ = kv.Put("r3", []byte("c"))
			if n, all := drained(kv, model); !all || n != 3 {
				t.Fatalf("after Restore: %d entries, all=%v; want all 3 keys", n, all)
			}
			check("after restore")
		})
	}
}
