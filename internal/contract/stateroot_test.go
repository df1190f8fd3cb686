package contract

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/merkle"
	"repro/internal/store"
)

// rebuiltRoot is the full-rehash oracle: a trie built from nothing over
// the engine's whole state, sharing none of the engine's change tracking.
func rebuiltRoot(t testing.TB, e *Engine) merkle.Hash {
	t.Helper()
	snap, err := e.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	tr := merkle.NewTrie()
	for k, v := range snap {
		tr.Put(k, v)
	}
	return tr.Root()
}

// checkStateOps drives an engine through one history of puts,
// overwrites, deletes and restores decoded from ops, asking for the root
// only now and then so change sets of every size — including ones that
// cover the whole state — pile up between roots. Its state seals every few
// keys, so the history runs through segments, merges and tombstones too.
// Wherever it asks, the incrementally kept root must equal the oracle's;
// at the end every key's proof must verify and a forged value must not.
func checkStateOps(t testing.TB, ops []byte) {
	e := NewEngineWith(store.NewMemLog(), store.LSMConfig{SealEntries: 3})
	compare := func(step int) {
		if err := e.state.SealIfDue(uint64(step), nil); err != nil {
			t.Fatal(err)
		}
		got, _ := e.StateRoot()
		if want := rebuiltRoot(t, e); got != want {
			t.Fatalf("step %d: incremental root %s, rebuilt %s", step, got.Short(), want.Short())
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		key := "k/" + strconv.Itoa(int(ops[i+1]%40))
		switch ops[i] % 8 {
		case 0, 1, 2:
			_ = e.State().Put(key, ops[i:i+2])
		case 3:
			_ = e.State().Put(key, nil) // a live key with an empty value
		case 4, 5:
			_ = e.State().Delete(key)
		case 6:
			// Restore to an edited snapshot, as a checkpoint load does.
			snap, err := e.StateSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			delete(snap, key)
			snap["restored/"+key] = ops[i : i+1]
			e.RestoreState(snap)
		case 7:
			compare(i)
		}
	}
	compare(len(ops))

	root, _ := e.StateRoot()
	snap, _ := e.StateSnapshot()
	for k, v := range snap {
		val, proof, err := e.StateProof(k)
		if err != nil {
			t.Fatalf("StateProof(%s): %v", k, err)
		}
		if string(val) != string(v) {
			t.Fatalf("StateProof(%s) returned %q, state holds %q", k, val, v)
		}
		if err := merkle.VerifyTrieProof(root, k, val, proof); err != nil {
			t.Fatalf("proof of %s: %v", k, err)
		}
		if merkle.VerifyTrieProof(root, k, append(val, 1), proof) == nil {
			t.Fatalf("proof of %s verifies a forged value", k)
		}
	}
	if _, _, err := e.StateProof("never/written"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("StateProof of an absent key: want ErrNotFound, got %v", err)
	}
}

func TestStateRootIncrementalProperty(t *testing.T) {
	prop := func(ops []byte) bool {
		checkStateOps(t, ops)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func FuzzStateTrie(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 7, 0, 4, 1, 4, 2, 7, 0})          // deletes dwarf the state
	f.Add([]byte{0, 1, 6, 1, 0, 3, 7, 0, 6, 3, 6, 4})          // restores, back to back
	f.Add([]byte{1, 9, 1, 9, 2, 9, 3, 9, 5, 9, 0, 9, 7, 7})    // one hot key
	f.Add([]byte{7, 0, 4, 4, 7, 0})                            // nothing but an empty state
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 7, 0, 3, 1, 5, 2, 7}) // odd length: last byte ignored
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		checkStateOps(t, ops)
	})
}

// BenchmarkStateRoot measures what a block's commit pays for its state
// root: writes keys of an n-key state are overwritten, then StateRoot is
// called. ns/op covers both; root-ns/op is the StateRoot call alone, the
// number EXPERIMENTS.md tabulates against state size.
func BenchmarkStateRoot(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		e := NewEngine()
		rng := rand.New(rand.NewSource(int64(n)))
		key := func(i int) string { return fmt.Sprintf("news/item/%08d", i) }
		val := make([]byte, 120)
		for i := 0; i < n; i++ {
			rng.Read(val)
			_ = e.State().Put(key(i), val)
		}
		benchRoot, _ = e.StateRoot()
		for _, writes := range []int{1, 512} {
			b.Run(fmt.Sprintf("keys=%d/writes=%d", n, writes), func(b *testing.B) {
				b.ReportAllocs()
				var inRoot time.Duration
				for i := 0; i < b.N; i++ {
					for w := 0; w < writes; w++ {
						rng.Read(val)
						_ = e.State().Put(key(rng.Intn(n)), val)
					}
					start := time.Now()
					benchRoot, _ = e.StateRoot()
					inRoot += time.Since(start)
				}
				b.ReportMetric(float64(inRoot.Nanoseconds())/float64(b.N), "root-ns/op")
			})
		}
	}
}

var benchRoot merkle.Hash
