package merkle

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// oracleTrieRoot computes a trie root from nothing by the scheme's
// recursive definition — sort the key hashes, split the set at the first
// bit where it disagrees, hash the halves — sharing no code with Trie's
// incremental Put/Delete/rehash.
func oracleTrieRoot(m map[string][]byte) Hash {
	type leaf struct{ kh, hash Hash }
	ls := make([]leaf, 0, len(m))
	for k, v := range m {
		kh := sha256.Sum256([]byte(k))
		vh := sha256.Sum256(v)
		d := sha256.New()
		d.Write([]byte{0x02})
		d.Write(kh[:])
		d.Write(vh[:])
		var l leaf
		l.kh = kh
		d.Sum(l.hash[:0])
		ls = append(ls, l)
	}
	if len(ls) == 0 {
		return Hash{}
	}
	sort.Slice(ls, func(i, j int) bool { return bytes.Compare(ls[i].kh[:], ls[j].kh[:]) < 0 })
	var build func(ls []leaf) Hash
	build = func(ls []leaf) Hash {
		if len(ls) == 1 {
			return ls[0].hash
		}
		// Sorted, so the first and last disagree earliest.
		first, last := ls[0].kh, ls[len(ls)-1].kh
		bit := 0
		for first[bit/8]>>(7-bit%8)&1 == last[bit/8]>>(7-bit%8)&1 {
			bit++
		}
		split := sort.Search(len(ls), func(i int) bool { return ls[i].kh[bit/8]>>(7-bit%8)&1 == 1 })
		l, r := build(ls[:split]), build(ls[split:])
		d := sha256.New()
		d.Write([]byte{0x03, byte(bit >> 8), byte(bit)})
		d.Write(l[:])
		d.Write(r[:])
		var h Hash
		d.Sum(h[:0])
		return h
	}
	return build(ls)
}

func TestTrieEmptyIsZero(t *testing.T) {
	tr := NewTrie()
	if !tr.Root().IsZero() {
		t.Fatal("empty trie must have the zero root")
	}
	tr.Put("k", []byte("v"))
	tr.Delete("k")
	tr.Delete("k")
	if !tr.Root().IsZero() {
		t.Fatal("trie emptied by Delete must return to the zero root")
	}
	if _, err := tr.Prove("k"); err != ErrNoSuchKey {
		t.Fatalf("Prove on empty trie: want ErrNoSuchKey, got %v", err)
	}
}

// trieOp is one step of a random history over a small key space, so
// overwrites and deletes of live keys are common.
type trieOp struct {
	Kind uint8 // 0-1 put, 2 delete, 3 ask for the root mid-history
	Key  uint8
	Val  []byte
}

func TestTrieMatchesOracleProperty(t *testing.T) {
	prop := func(ops []trieOp) bool {
		tr := NewTrie()
		model := make(map[string][]byte)
		for _, op := range ops {
			k := "key/" + strconv.Itoa(int(op.Key%48))
			switch op.Kind % 4 {
			case 0, 1:
				tr.Put(k, op.Val)
				model[k] = op.Val
			case 2:
				tr.Delete(k)
				delete(model, k)
			case 3:
				// Lazy hashing must survive any interleaving of Root calls.
				if tr.Root() != oracleTrieRoot(model) {
					return false
				}
			}
		}
		if tr.Root() != oracleTrieRoot(model) {
			return false
		}
		// History must not show: a trie holding only the survivors agrees.
		fresh := NewTrie()
		for k, v := range model {
			fresh.Put(k, v)
		}
		return fresh.Root() == tr.Root()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTrieProofs(t *testing.T) {
	tr := NewTrie()
	model := make(map[string][]byte)
	for i := 0; i < 200; i++ {
		k, v := "k"+strconv.Itoa(i), []byte("v"+strconv.Itoa(i))
		tr.Put(k, v)
		model[k] = v
	}
	tr.Root()
	tr.Put("k7", []byte("rewritten")) // proofs are built over stale paths too
	model["k7"] = []byte("rewritten")
	root := tr.Root()
	for k, v := range model {
		p, err := tr.Prove(k)
		if err != nil {
			t.Fatalf("Prove(%s): %v", k, err)
		}
		if err := VerifyTrieProof(root, k, v, p); err != nil {
			t.Fatalf("proof of %s does not verify: %v", k, err)
		}
		if VerifyTrieProof(root, k, append([]byte("x"), v...), p) == nil {
			t.Fatalf("proof of %s verifies another value", k)
		}
		if VerifyTrieProof(root, k+"'", v, p) == nil {
			t.Fatalf("proof of %s verifies another key", k)
		}
		bad := root
		bad[0] ^= 1
		if VerifyTrieProof(bad, k, v, p) == nil {
			t.Fatalf("proof of %s verifies under another root", k)
		}
		if len(p.Steps) > 1 {
			cut := TrieProof{Steps: p.Steps[1:]}
			if VerifyTrieProof(root, k, v, cut) == nil {
				t.Fatalf("truncated proof of %s verifies", k)
			}
			swapped := TrieProof{Steps: append([]TrieProofStep(nil), p.Steps...)}
			swapped.Steps[0], swapped.Steps[1] = swapped.Steps[1], swapped.Steps[0]
			if VerifyTrieProof(root, k, v, swapped) != ErrProofInvalid {
				t.Fatalf("proof of %s with branches out of order verifies", k)
			}
		}
	}
	if _, err := tr.Prove("absent"); err != ErrNoSuchKey {
		t.Fatalf("Prove(absent): want ErrNoSuchKey, got %v", err)
	}
	tr.Delete("k7")
	if _, err := tr.Prove("k7"); err != ErrNoSuchKey {
		t.Fatalf("Prove(deleted): want ErrNoSuchKey, got %v", err)
	}
	oob := TrieProof{Steps: []TrieProofStep{{Bit: 256}}}
	if VerifyTrieProof(root, "k1", model["k1"], oob) != ErrProofInvalid {
		t.Fatal("crit bit beyond the key hash must be rejected")
	}
}

func trieEntries(n int) ([]string, [][]byte) {
	rng := rand.New(rand.NewSource(1))
	ks, vs := make([]string, n), make([][]byte, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("news/item/%08d", i)
		vs[i] = make([]byte, 120)
		rng.Read(vs[i])
	}
	return ks, vs
}

// BenchmarkTrieRebuild is the everything-stale path: checkpoint restore
// and a write set covering most of the state build the trie from nothing.
func BenchmarkTrieRebuild(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		ks, vs := trieEntries(n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := NewTrie()
				for j, k := range ks {
					tr.Put(k, vs[j])
				}
				benchSink = tr.Root()
			}
		})
	}
}

var benchSink Hash
