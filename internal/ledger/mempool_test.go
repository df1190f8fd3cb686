package ledger

import (
	"errors"
	"strconv"
	"sync"
	"testing"
)

// TestMempoolCapacityAcrossSenders verifies that the capacity bound
// counts every sender's transactions, not each sender's.
func TestMempoolCapacityAcrossSenders(t *testing.T) {
	mp := NewMempool(NewMemChain(), 8)
	full := 0
	for i := 0; i < 16; i++ {
		kp := signer("cap" + strconv.Itoa(i))
		if err := mp.Add(mustTx(t, kp, 0, "k", "x")); errors.Is(err, ErrMempoolFull) {
			full++
		}
	}
	if mp.Size() != 8 {
		t.Fatalf("size=%d want capacity 8", mp.Size())
	}
	if full != 8 {
		t.Fatalf("rejected=%d want 8", full)
	}
}

// TestMempoolRejectionsAndRemove checks duplicate and stale-nonce
// rejection and commit-time pruning on one pool.
func TestMempoolRejectionsAndRemove(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	mp := NewMempool(c, 0)
	tx0 := mustTx(t, alice, 0, "k", "a")
	if err := mp.Add(tx0); err != nil {
		t.Fatal(err)
	}
	if err := mp.Add(tx0); !errors.Is(err, ErrDuplicateTx) {
		t.Fatalf("want ErrDuplicateTx, got %v", err)
	}
	// A competing same-nonce tx is pruned once nonce 0 commits.
	tx0dup := mustTx(t, alice, 0, "k", "competing payload")
	if err := mp.Add(tx0dup); err != nil {
		t.Fatal(err)
	}
	appendBlock(t, c, alice, []*Tx{tx0})
	mp.Remove([]*Tx{tx0})
	if mp.Size() != 0 {
		t.Fatalf("stale competing tx not pruned; size=%d", mp.Size())
	}
	if err := mp.Add(mustTx(t, alice, 0, "k", "replay")); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("want ErrStaleNonce, got %v", err)
	}
}

// TestMempoolConcurrentAdd hammers the pool from many goroutines; run
// under -race this is the admission-locking regression test.
func TestMempoolConcurrentAdd(t *testing.T) {
	c := NewMemChain()
	mp := NewMempool(c, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kp := signer("conc" + strconv.Itoa(g))
			for n := 0; n < 50; n++ {
				tx, err := NewTx(kp, uint64(n), "k", []byte{byte(n)})
				if err != nil {
					t.Error(err)
					return
				}
				if err := mp.Add(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if mp.Size() != 400 {
		t.Fatalf("size=%d want 400", mp.Size())
	}
	if got := len(mp.Batch(0)); got != 400 {
		t.Fatalf("batch=%d want 400", got)
	}
}
