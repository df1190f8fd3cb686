package ledger

import (
	"bytes"
	"errors"
	"path/filepath"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/keys"
	"repro/internal/store"
)

var testTime = time.Date(2019, 7, 8, 12, 0, 0, 0, time.UTC)

func signer(name string) *keys.KeyPair { return keys.FromSeed([]byte(name)) }

func mustTx(t testing.TB, kp *keys.KeyPair, nonce uint64, kind, payload string) *Tx {
	t.Helper()
	tx, err := NewTx(kp, nonce, kind, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTxSignVerify(t *testing.T) {
	alice := signer("alice")
	tx := mustTx(t, alice, 0, "news.publish", "headline")
	if err := tx.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTxVerifyRejectsTamper(t *testing.T) {
	alice := signer("alice")
	tx := mustTx(t, alice, 0, "news.publish", "headline")
	tx.Payload = []byte("forged headline")
	if err := tx.Verify(); !errors.Is(err, ErrTxBadSignature) {
		t.Fatalf("want ErrTxBadSignature, got %v", err)
	}
}

func TestTxVerifyRejectsSenderSwap(t *testing.T) {
	alice, bob := signer("alice"), signer("bob")
	tx := mustTx(t, alice, 0, "news.publish", "x")
	tx.Sender = bob.Address()
	if err := tx.Verify(); !errors.Is(err, ErrTxSenderMismatch) {
		t.Fatalf("want ErrTxSenderMismatch, got %v", err)
	}
}

func TestTxVerifyRejectsUnsigned(t *testing.T) {
	tx := &Tx{Sender: signer("a").Address(), Kind: "k"}
	if err := tx.Verify(); !errors.Is(err, ErrTxUnsigned) {
		t.Fatalf("want ErrTxUnsigned, got %v", err)
	}
}

func TestTxVerifyRejectsEmptyKind(t *testing.T) {
	alice := signer("alice")
	tx := &Tx{Sender: alice.Address(), Nonce: 0, Kind: ""}
	tx.Sign(alice)
	if err := tx.Verify(); !errors.Is(err, ErrTxEmptyKind) {
		t.Fatalf("want ErrTxEmptyKind, got %v", err)
	}
}

func TestTxSignWrongKey(t *testing.T) {
	tx := &Tx{Sender: signer("alice").Address(), Kind: "k"}
	if err := tx.Sign(signer("bob")); !errors.Is(err, ErrTxSenderMismatch) {
		t.Fatalf("want ErrTxSenderMismatch, got %v", err)
	}
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	alice := signer("alice")
	tx := mustTx(t, alice, 42, "rank.vote", "article-7:factual")
	got, err := DecodeTx(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != tx.ID() {
		t.Fatal("round trip changed tx id")
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTxRejectsTrailing(t *testing.T) {
	tx := mustTx(t, signer("a"), 0, "k", "p")
	raw := append(tx.Encode(), 0xff)
	if _, err := DecodeTx(raw); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

func TestDecodeTxRejectsTruncated(t *testing.T) {
	tx := mustTx(t, signer("a"), 0, "k", "payload")
	raw := tx.Encode()
	for _, n := range []int{0, 5, len(raw) / 2, len(raw) - 1} {
		if _, err := DecodeTx(raw[:n]); err == nil {
			t.Fatalf("want error for truncation at %d", n)
		}
	}
}

func TestTxIDCoversSignature(t *testing.T) {
	alice := signer("alice")
	a := mustTx(t, alice, 0, "k", "p")
	b := mustTx(t, alice, 0, "k", "p")
	// Ed25519 is deterministic, so same intent yields same sig and id.
	if a.ID() != b.ID() {
		t.Fatal("deterministic signing should give equal ids")
	}
	// ID is memoized per signed identity, so flip the signature on a fresh
	// value rather than mutating b in place (in-place mutation returns the
	// stale memo by design; the verification pipeline always re-hashes).
	flipped := append([]byte{}, b.Sig...)
	flipped[0] ^= 1
	c := &Tx{Sender: b.Sender, Nonce: b.Nonce, Kind: b.Kind, Payload: b.Payload, PubKey: b.PubKey, Sig: flipped}
	if a.ID() == c.ID() {
		t.Fatal("id must cover the signature")
	}
}

func TestBlockValidateBody(t *testing.T) {
	alice := signer("alice")
	txs := []*Tx{mustTx(t, alice, 0, "k", "a"), mustTx(t, alice, 1, "k", "b")}
	b := NewBlock(0, BlockID{}, [32]byte{}, testTime, alice.Address(), txs)
	if err := b.ValidateBody(); err != nil {
		t.Fatal(err)
	}
	b.Txs = b.Txs[:1]
	if err := b.ValidateBody(); !errors.Is(err, ErrBlockBadTxRoot) {
		t.Fatalf("want ErrBlockBadTxRoot, got %v", err)
	}
}

func TestBlockValidateBodyBadTx(t *testing.T) {
	alice := signer("alice")
	tx := mustTx(t, alice, 0, "k", "a")
	tx.Payload = []byte("tampered")
	b := &Block{Header: Header{TxRoot: TxRoot([]*Tx{tx}), Time: testTime}, Txs: []*Tx{tx}}
	if err := b.ValidateBody(); !errors.Is(err, ErrBlockBadTx) {
		t.Fatalf("want ErrBlockBadTx, got %v", err)
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	alice := signer("alice")
	txs := []*Tx{mustTx(t, alice, 0, "news.publish", "hello"), mustTx(t, alice, 1, "rank.vote", "yes")}
	b := NewBlock(3, BlockID{1, 2}, [32]byte{9}, testTime, alice.Address(), txs)
	got, err := DecodeBlock(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != b.ID() {
		t.Fatal("block id changed through round trip")
	}
	if len(got.Txs) != 2 || got.Txs[1].Kind != "rank.vote" {
		t.Fatalf("txs corrupted: %+v", got.Txs)
	}
	if !got.Header.Time.Equal(testTime) {
		t.Fatalf("time corrupted: %v", got.Header.Time)
	}
}

func appendBlock(t testing.TB, c *Chain, proposer *keys.KeyPair, txs []*Tx) *Block {
	t.Helper()
	b := NewBlock(c.Height(), c.HeadID(), [32]byte{}, testTime, proposer.Address(), txs)
	if err := c.Append(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestChainAppendAndLookup(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	tx := mustTx(t, alice, 0, "news.publish", "first")
	b := appendBlock(t, c, alice, []*Tx{tx})
	if c.Height() != 1 {
		t.Fatalf("height=%d", c.Height())
	}
	got, err := c.BlockByID(b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Height != 0 {
		t.Fatalf("height=%d", got.Header.Height)
	}
	foundTx, loc, err := c.FindTx(tx.ID())
	if err != nil {
		t.Fatal(err)
	}
	if loc.Height != 0 || loc.Index != 0 || foundTx.Kind != "news.publish" {
		t.Fatalf("loc=%+v tx=%+v", loc, foundTx)
	}
}

func TestChainRejectsBadHeight(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	b := NewBlock(5, BlockID{}, [32]byte{}, testTime, alice.Address(), nil)
	if err := c.Append(b); !errors.Is(err, ErrBadHeight) {
		t.Fatalf("want ErrBadHeight, got %v", err)
	}
}

func TestChainRejectsBadParent(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	appendBlock(t, c, alice, nil)
	b := NewBlock(1, BlockID{0xde, 0xad}, [32]byte{}, testTime, alice.Address(), nil)
	if err := c.Append(b); !errors.Is(err, ErrBadParent) {
		t.Fatalf("want ErrBadParent, got %v", err)
	}
}

func TestChainEnforcesNonces(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	appendBlock(t, c, alice, []*Tx{mustTx(t, alice, 0, "k", "a")})
	// Replay of nonce 0 must fail.
	b := NewBlock(1, c.HeadID(), [32]byte{}, testTime, alice.Address(), []*Tx{mustTx(t, alice, 0, "k", "a")})
	if err := c.Append(b); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("want ErrBadNonce, got %v", err)
	}
	// Gap must fail too.
	b2 := NewBlock(1, c.HeadID(), [32]byte{}, testTime, alice.Address(), []*Tx{mustTx(t, alice, 5, "k", "a")})
	if err := c.Append(b2); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("want ErrBadNonce for gap, got %v", err)
	}
	// Correct next nonce succeeds.
	appendBlock(t, c, alice, []*Tx{mustTx(t, alice, 1, "k", "b")})
	if c.NextNonce(alice.Address().String()) != 2 {
		t.Fatalf("next nonce=%d", c.NextNonce(alice.Address().String()))
	}
}

func TestChainNonceSequenceWithinBlock(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	txs := []*Tx{
		mustTx(t, alice, 0, "k", "a"),
		mustTx(t, alice, 1, "k", "b"),
		mustTx(t, alice, 2, "k", "c"),
	}
	appendBlock(t, c, alice, txs)
	if c.NextNonce(alice.Address().String()) != 3 {
		t.Fatal("in-block nonce sequence not applied")
	}
}

func TestChainReplayFromLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chain.log")
	log, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChain(log, store.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	alice := signer("alice")
	var lastTx *Tx
	for i := 0; i < 5; i++ {
		lastTx = mustTx(t, alice, uint64(i), "k", "payload"+strconv.Itoa(i))
		appendBlock(t, c, alice, []*Tx{lastTx})
	}
	headID := c.HeadID()
	log.Close()

	log2, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	c2, err := NewChain(log2, store.NewMemLog())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if c2.Height() != 5 || c2.HeadID() != headID {
		t.Fatalf("replayed height=%d head=%s", c2.Height(), c2.HeadID().Short())
	}
	if _, _, err := c2.FindTx(lastTx.ID()); err != nil {
		t.Fatalf("tx index not rebuilt: %v", err)
	}
	if c2.NextNonce(alice.Address().String()) != 5 {
		t.Fatal("nonces not rebuilt")
	}
}

func TestChainWalk(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	for i := 0; i < 4; i++ {
		appendBlock(t, c, alice, []*Tx{mustTx(t, alice, uint64(i), "k", "x")})
	}
	var heights []uint64
	if err := c.Walk(1, func(b *Block) bool {
		heights = append(heights, b.Header.Height)
		return b.Header.Height < 2
	}); err != nil {
		t.Fatal(err)
	}
	if len(heights) != 2 || heights[0] != 1 || heights[1] != 2 {
		t.Fatalf("heights=%v", heights)
	}
}

func TestMempoolAddBatchRemove(t *testing.T) {
	alice, bob := signer("alice"), signer("bob")
	c := NewMemChain()
	mp := NewMempool(c, 0)
	for i := 0; i < 3; i++ {
		if err := mp.Add(mustTx(t, alice, uint64(i), "k", "a"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := mp.Add(mustTx(t, bob, 0, "k", "b0")); err != nil {
		t.Fatal(err)
	}
	if mp.Size() != 4 {
		t.Fatalf("size=%d", mp.Size())
	}
	batch := mp.Batch(10)
	if len(batch) != 4 {
		t.Fatalf("batch=%d", len(batch))
	}
	appendBlock(t, c, alice, batch)
	mp.Remove(batch)
	if mp.Size() != 0 {
		t.Fatalf("size after remove=%d", mp.Size())
	}
}

func TestMempoolBatchRespectsNonceGaps(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	mp := NewMempool(c, 0)
	mp.Add(mustTx(t, alice, 0, "k", "a"))
	mp.Add(mustTx(t, alice, 2, "k", "c")) // gap at 1
	batch := mp.Batch(10)
	if len(batch) != 1 || batch[0].Nonce != 0 {
		t.Fatalf("batch=%v", batch)
	}
}

func TestMempoolRejectsDuplicate(t *testing.T) {
	alice := signer("alice")
	mp := NewMempool(NewMemChain(), 0)
	tx := mustTx(t, alice, 0, "k", "a")
	if err := mp.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := mp.Add(tx); !errors.Is(err, ErrDuplicateTx) {
		t.Fatalf("want ErrDuplicateTx, got %v", err)
	}
}

func TestMempoolRejectsStaleNonce(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	appendBlock(t, c, alice, []*Tx{mustTx(t, alice, 0, "k", "committed")})
	mp := NewMempool(c, 0)
	if err := mp.Add(mustTx(t, alice, 0, "k", "replay")); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("want ErrStaleNonce, got %v", err)
	}
}

func TestMempoolCapacity(t *testing.T) {
	alice := signer("alice")
	mp := NewMempool(NewMemChain(), 2)
	mp.Add(mustTx(t, alice, 0, "k", "a"))
	mp.Add(mustTx(t, alice, 1, "k", "b"))
	if err := mp.Add(mustTx(t, alice, 2, "k", "c")); !errors.Is(err, ErrMempoolFull) {
		t.Fatalf("want ErrMempoolFull, got %v", err)
	}
}

func TestMempoolBatchLimit(t *testing.T) {
	alice := signer("alice")
	mp := NewMempool(NewMemChain(), 0)
	for i := 0; i < 10; i++ {
		mp.Add(mustTx(t, alice, uint64(i), "k", strconv.Itoa(i)))
	}
	if got := len(mp.Batch(3)); got != 3 {
		t.Fatalf("batch=%d want 3", got)
	}
}

func TestMempoolRemovePrunesStale(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	mp := NewMempool(c, 0)
	tx0 := mustTx(t, alice, 0, "k", "a")
	tx0dup := mustTx(t, alice, 0, "k", "competing payload same nonce")
	mp.Add(tx0)
	mp.Add(tx0dup)
	appendBlock(t, c, alice, []*Tx{tx0})
	mp.Remove([]*Tx{tx0})
	if mp.Size() != 0 {
		t.Fatalf("stale competing tx not pruned; size=%d", mp.Size())
	}
}

// Property: encode/decode round-trips arbitrary payloads and kinds.
func TestTxRoundTripProperty(t *testing.T) {
	alice := signer("prop")
	f := func(nonce uint64, kind string, payload []byte) bool {
		if kind == "" {
			kind = "k"
		}
		tx, err := NewTx(alice, nonce, kind, payload)
		if err != nil {
			return false
		}
		got, err := DecodeTx(tx.Encode())
		if err != nil {
			return false
		}
		return got.ID() == tx.ID() && got.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain built from random per-sender activity always has
// consistent indexes: every committed tx is findable and nonces equal the
// number of txs committed per sender.
func TestChainIndexConsistencyProperty(t *testing.T) {
	f := func(plan []uint8) bool {
		c := NewMemChain()
		sent := make(map[string]uint64)
		actors := []*keys.KeyPair{signer("s0"), signer("s1"), signer("s2")}
		var allTxs []*Tx
		for _, p := range plan {
			kp := actors[int(p)%len(actors)]
			key := kp.Address().String()
			tx, err := NewTx(kp, sent[key], "k", []byte{p})
			if err != nil {
				return false
			}
			b := NewBlock(c.Height(), c.HeadID(), [32]byte{}, testTime, kp.Address(), []*Tx{tx})
			if err := c.Append(b); err != nil {
				return false
			}
			sent[key]++
			allTxs = append(allTxs, tx)
		}
		for _, tx := range allTxs {
			if _, _, err := c.FindTx(tx.ID()); err != nil {
				return false
			}
		}
		for key, n := range sent {
			if c.NextNonce(key) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTxVerify(b *testing.B) {
	tx := mustTx(b, signer("bench"), 0, "news.publish", "some article body text for benchmarking")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockRoundTrip(b *testing.B) {
	alice := signer("bench")
	txs := make([]*Tx, 100)
	for i := range txs {
		txs[i] = mustTx(b, alice, uint64(i), "k", string(bytes.Repeat([]byte("x"), 200)))
	}
	blk := NewBlock(0, BlockID{}, [32]byte{}, testTime, alice.Address(), txs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBlock(blk.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainAppend(b *testing.B) {
	alice := signer("bench")
	c := NewMemChain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := mustTx(b, alice, uint64(i), "k", "payload")
		blk := NewBlock(c.Height(), c.HeadID(), [32]byte{}, testTime, alice.Address(), []*Tx{tx})
		if err := c.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBlockEncodeExactSize: a block is encoded into one buffer of exactly
// its size.
func TestBlockEncodeExactSize(t *testing.T) {
	alice := signer("size")
	for _, n := range []int{0, 1, 100} {
		txs := make([]*Tx, n)
		for i := range txs {
			txs[i] = mustTx(t, alice, uint64(i), "news.publish", string(bytes.Repeat([]byte("x"), i)))
		}
		out := NewBlock(0, BlockID{}, [32]byte{}, testTime, alice.Address(), txs).Encode()
		if len(out) != cap(out) {
			t.Fatalf("%d txs: %d bytes in a %d-byte buffer", n, len(out), cap(out))
		}
	}
}

// BenchmarkBlockEncode: a 128-transaction block whose transactions'
// encodings are already memoized, as on the commit path (go test -bench
// BlockEncode -benchmem ./internal/ledger).
func BenchmarkBlockEncode(b *testing.B) {
	alice := signer("bench")
	txs := make([]*Tx, 128)
	for i := range txs {
		txs[i] = mustTx(b, alice, uint64(i), "news.publish", string(bytes.Repeat([]byte("x"), 200)))
	}
	blk := NewBlock(0, BlockID{}, [32]byte{}, testTime, alice.Address(), txs)
	blk.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.Encode()
	}
}
