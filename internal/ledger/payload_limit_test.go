package ledger

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func oversizedTx(t *testing.T, payloadLen int) *Tx {
	t.Helper()
	kp := signer("bulky")
	tx, err := NewTx(kp, 0, "news.publish", bytes.Repeat([]byte("x"), payloadLen))
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTxVerifyRejectsOversizedPayload(t *testing.T) {
	tx := oversizedTx(t, MaxTxPayloadBytes+1)
	if err := tx.Verify(); !errors.Is(err, ErrTxPayloadTooLarge) {
		t.Fatalf("Verify err = %v, want ErrTxPayloadTooLarge", err)
	}
	// At the cap exactly, the payload check passes.
	if err := oversizedTx(t, MaxTxPayloadBytes).Verify(); err != nil {
		t.Fatalf("Verify at cap: %v", err)
	}
}

func TestBlockValidationRejectsOversizedPayload(t *testing.T) {
	proposer := signer("proposer")
	tx := oversizedTx(t, MaxTxPayloadBytes+1)
	b := NewBlock(0, BlockID{}, [32]byte{}, testTime, proposer.Address(), []*Tx{tx})
	err := b.ValidateBody()
	if !errors.Is(err, ErrBlockBadTx) {
		t.Fatalf("ValidateBody err = %v, want ErrBlockBadTx", err)
	}
	if !strings.Contains(err.Error(), "payload too large") {
		t.Fatalf("error does not name the payload cap: %v", err)
	}
}

func TestMempoolRejectsOversizedAtAdmission(t *testing.T) {
	mp := NewMempool(NewMemChain(), 0)
	// Over the (tighter) mempool cap but under the consensus cap: the tx
	// itself verifies, yet admission refuses it.
	tx := oversizedTx(t, MaxMempoolPayloadBytes+1)
	if err := tx.Verify(); err != nil {
		t.Fatalf("tx should pass consensus verify: %v", err)
	}
	err := mp.Add(tx)
	if !errors.Is(err, ErrTxPayloadTooLarge) {
		t.Fatalf("Add err = %v, want ErrTxPayloadTooLarge", err)
	}
	if !strings.Contains(err.Error(), "mempool max") {
		t.Fatalf("error lacks mempool context: %v", err)
	}
	if mp.Size() != 0 {
		t.Fatal("oversized tx admitted")
	}
	// At the cap exactly, admission passes.
	if err := mp.Add(oversizedTx(t, MaxMempoolPayloadBytes)); err != nil {
		t.Fatalf("Add at cap: %v", err)
	}
}
