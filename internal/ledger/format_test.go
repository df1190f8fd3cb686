package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/store"
)

// TestFormatBytesPinned pins the bytes of the ledger's formats: the sha256
// of a transaction's encoding, of two blocks' and of two chain.log records,
// one with a certificate trailer and one without. Round-trip tests and the
// fuzzers only check that an encoding decodes back to itself; this test
// fails when the encoding itself moves, which would change every tx id and
// block id and strand every chain.log on disk.
func TestFormatBytesPinned(t *testing.T) {
	alice := signer("pin-alice")
	tx := mustTx(t, alice, 7, "news.publish", "pinned payload")
	empty := NewBlock(4, BlockID{1, 2, 3}, [32]byte{4, 5}, testTime, alice.Address(), nil)
	two := NewBlock(5, empty.ID(), [32]byte{6}, testTime, alice.Address(), []*Tx{
		mustTx(t, alice, 0, "news.publish", "first"),
		mustTx(t, alice, 1, "rank.vote", ""),
	})

	log := store.NewMemLog()
	c, err := NewChain(log, store.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	plain := NewBlock(0, BlockID{}, [32]byte{}, testTime, alice.Address(), []*Tx{mustTx(t, alice, 0, "k", "a")})
	if err := c.Append(plain, nil); err != nil {
		t.Fatal(err)
	}
	certified := NewBlock(1, c.HeadID(), [32]byte{}, testTime, alice.Address(), []*Tx{mustTx(t, alice, 1, "k", "b")})
	if err := c.Append(certified, []byte("certificate bytes")); err != nil {
		t.Fatal(err)
	}
	record := func(h uint64) []byte {
		raw, err := log.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"tx", tx.Encode(), "03b065696ded21d331e39a08d70328434b6284deded665f5a73ca39a4e9f22f3"},
		{"block with 0 txs", empty.Encode(), "2e5802d6620e9ef5d2b00d3c7a6670fac04e5b1c2aa767d56385b649d22567bd"},
		{"block with 2 txs", two.Encode(), "fbbe950f031fd8e1f456ee43c000889188828f97dc6f6cfd4550d06f2bdf3ce6"},
		{"chain.log record without certificate", record(0), "886e0f80d49f11331871bf5750b8db1451bc9b4ff0ca7d0240ca9472c298987e"},
		{"chain.log record with certificate", record(1), "766aba3f33df0ab198fdba8cf435c7f7c2e0d1eb905c004ba99ded71299fd5c6"},
	} {
		sum := sha256.Sum256(tc.raw)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
