package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/keys"
	"repro/internal/telemetry"
)

// buildBlock assembles a block over txs with an honest header root.
func buildBlock(txs []*Tx) *Block {
	return NewBlock(0, BlockID{}, [32]byte{}, testTime, signer("proposer").Address(), txs)
}

// signedTxs builds n valid txs from one sender.
func signedTxs(t testing.TB, seed string, n int) []*Tx {
	t.Helper()
	kp := signer(seed)
	txs := make([]*Tx, n)
	for i := range txs {
		txs[i] = mustTx(t, kp, uint64(i), "news.publish", fmt.Sprintf("article body %s %d", seed, i))
	}
	return txs
}

func TestVerifierMatchesSerialOnValidBlock(t *testing.T) {
	blk := buildBlock(signedTxs(t, "vm", 40))
	if err := blk.ValidateBody(); err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		v := NewVerifier(NewSigCache(0), workers)
		if err := v.ValidateBody(blk); err != nil {
			t.Fatalf("pipeline workers=%d: %v", workers, err)
		}
		// Second pass: every signature now served from the cache.
		if err := v.ValidateBody(blk); err != nil {
			t.Fatalf("pipeline cached pass workers=%d: %v", workers, err)
		}
	}
}

func TestVerifierRejectsBadRootAndBadTx(t *testing.T) {
	txs := signedTxs(t, "vr", 40)
	blk := buildBlock(txs)
	blk.Header.TxRoot[0] ^= 1
	for _, v := range []*Verifier{nil, NewVerifier(nil, 4), NewVerifier(NewSigCache(0), 4)} {
		if err := v.ValidateBody(blk); !errors.Is(err, ErrBlockBadTxRoot) {
			t.Fatalf("want ErrBlockBadTxRoot, got %v", err)
		}
	}

	// A block whose root honestly commits to a tx with a forged signature
	// must fail per-tx verification in both serial and parallel modes.
	bad := signedTxs(t, "vr2", 40)
	forged := &Tx{Sender: bad[7].Sender, Nonce: bad[7].Nonce, Kind: bad[7].Kind,
		Payload: bad[7].Payload, PubKey: bad[7].PubKey, Sig: append([]byte{}, bad[7].Sig...)}
	forged.Sig[0] ^= 1
	bad[7] = forged
	blk2 := buildBlock(bad)
	for _, v := range []*Verifier{nil, NewVerifier(nil, 4), NewVerifier(NewSigCache(0), 4)} {
		if err := v.ValidateBody(blk2); !errors.Is(err, ErrBlockBadTx) {
			t.Fatalf("want ErrBlockBadTx, got %v", err)
		}
	}
}

// TestSigCacheCannotBePoisoned is the adversarial case from the issue: a
// transaction is admitted (caching its verified signature), then its Sig
// and PubKey bytes are swapped post-admission. Block validation must still
// reject it — the cache key is the hash of the exact bytes being verified,
// so a mutated tx can never ride a stale cache entry past the ed25519
// check.
func TestSigCacheCannotBePoisoned(t *testing.T) {
	chain := NewMemChain()
	pool := NewMempool(chain, 64)
	alice, eve := signer("cache-alice"), signer("cache-eve")
	victim := mustTx(t, alice, 0, "news.publish", "honest article")
	other := mustTx(t, eve, 0, "news.publish", "eve article")

	if err := pool.Add(victim); err != nil {
		t.Fatal(err)
	}
	cache := chain.Verifier().Cache()
	if cache == nil || !cache.Contains(victim.ID()) {
		t.Fatal("admission must populate the chain's signature cache")
	}

	// In-place mutation: the memoized encoding (and therefore the header
	// root an attacker-proposer would publish) still carries the original
	// bytes, while verification re-serializes the mutated ones.
	victim.Sig = other.Sig
	victim.PubKey = other.PubKey
	blk := NewBlock(0, chain.HeadID(), [32]byte{}, testTime, alice.Address(), []*Tx{victim})
	if err := chain.Append(blk, nil); err == nil {
		t.Fatal("block carrying a post-admission-mutated tx must be rejected")
	}

	// Fresh-value variant: the attacker rebuilds the tx (clean memo) with
	// swapped signature bytes and commits an honest root over the forgery.
	forged := &Tx{Sender: alice.Address(), Nonce: 0, Kind: victim.Kind,
		Payload: victim.Payload, PubKey: alice.Public(), Sig: other.Sig}
	blk2 := NewBlock(0, chain.HeadID(), [32]byte{}, testTime, alice.Address(), []*Tx{forged})
	err := chain.Append(blk2, nil)
	if !errors.Is(err, ErrBlockBadTx) {
		t.Fatalf("forged-signature block: want ErrBlockBadTx, got %v", err)
	}
}

// TestMempoolAdmissionFeedsBlockValidation checks the steady-state fast
// path end to end: every signature verified at admission is a cache hit
// during block validation, so Append performs zero ed25519 operations.
func TestMempoolAdmissionFeedsBlockValidation(t *testing.T) {
	reg := telemetry.New()
	chain := NewMemChain()
	chain.Verifier().Instrument(reg)
	pool := NewMempool(chain, 1<<10)
	txs := signedTxs(t, "feed", 32)
	for _, tx := range txs {
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	_, missesBefore := chain.Verifier().CacheStats()
	blk := NewBlock(0, chain.HeadID(), [32]byte{}, testTime, signer("feed").Address(), pool.Batch(0))
	if err := chain.Append(blk, nil); err != nil {
		t.Fatal(err)
	}
	hits, misses := chain.Verifier().CacheStats()
	if misses != missesBefore {
		t.Fatalf("block validation re-verified %d admitted signatures", misses-missesBefore)
	}
	if hits < uint64(len(txs)) {
		t.Fatalf("want >=%d cache hits, got %d", len(txs), hits)
	}
}

func TestSigCacheBoundedEviction(t *testing.T) {
	c := NewSigCache(64)
	var ids []TxID
	for i := 0; i < 1024; i++ {
		var id TxID
		binary.BigEndian.PutUint64(id[1:], uint64(i))
		id[0] = byte(i) // spread across shards
		ids = append(ids, id)
		c.Add(id)
	}
	if got := c.Len(); got > 64 {
		t.Fatalf("cache exceeded capacity: %d > 64", got)
	}
	// Room is made before the insert, so the newest id is always resident.
	if !c.Contains(ids[len(ids)-1]) {
		t.Fatal("most recent id evicted")
	}
}

// TestSigCacheFollowsInFlight drives 100 000 transactions through the real
// path — mempool admission, proposal, proposal validation, Chain.Append,
// mempool removal — in 512-tx blocks with a second block's worth always
// pending. The verified-signature set must hold what is in flight and
// nothing else, and forgetting committed ids must not cost a second
// ed25519 verification anywhere on that path.
func TestSigCacheFollowsInFlight(t *testing.T) {
	total, block := 100_000, 512
	if testing.Short() || raceEnabled {
		total = 10_000
	}
	reg := telemetry.New()
	chain := NewMemChain()
	chain.Verifier().Instrument(reg)
	cache := chain.Verifier().Cache()
	pool := NewMempool(chain, 4*block)

	senders := make([]*keys.KeyPair, 64)
	nonces := make([]uint64, len(senders))
	for i := range senders {
		senders[i] = signer(fmt.Sprintf("inflight-%d", i))
	}
	admitted := 0
	admit := func(n int) {
		for ; n > 0 && admitted < total; n-- {
			s := admitted % len(senders)
			tx := mustTx(t, senders[s], nonces[s], "news.publish", fmt.Sprintf("body %d", admitted))
			nonces[s]++
			admitted++
			if err := pool.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkBound := func(when string) {
		t.Helper()
		if got, max := cache.Len(), pool.Size()+block; got > max {
			t.Fatalf("%s: %d cached signatures with %d pending (bound: pending + one block = %d)", when, got, pool.Size(), max)
		}
	}

	admit(block)
	for committed := 0; committed < total; {
		admit(block) // the next block's transactions arrive while this one is decided
		checkBound("after admission")
		txs := pool.Batch(block)
		var prev BlockID
		if h := chain.Head(); h != nil {
			prev = h.ID()
		}
		blk := NewBlock(chain.Height(), prev, [32]byte{}, testTime, senders[0].Address(), txs)
		if err := chain.Validate(blk); err != nil {
			t.Fatal(err)
		}
		if err := chain.Append(blk, nil); err != nil {
			t.Fatal(err)
		}
		pool.Remove(txs)
		committed += len(txs)
		checkBound("after commit")
	}
	if pool.Size() != 0 || cache.Len() != 0 {
		t.Fatalf("drained: %d pending, %d cached signatures", pool.Size(), cache.Len())
	}
	if got := reg.Gauge("trustnews_verify_sigcache_entries", "").Value(); got != 0 {
		t.Fatalf("entries gauge = %v after the drain", got)
	}
	// Admission verifies; proposal validation and Append find it verified.
	hits, misses := chain.Verifier().CacheStats()
	if misses != uint64(total) || hits != 2*uint64(total) {
		t.Fatalf("%d txs: %d ed25519 verifications (want one each), %d cache hits (want two each)", total, misses, hits)
	}
}

// TestSigCacheHeapFollowsResidency churns ids through a bare cache in the
// pattern above (at most two blocks resident) and checks its memory is
// the same after 100 000 ids as after 10 000.
func TestSigCacheHeapFollowsResidency(t *testing.T) {
	const block = 512
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	id := func(i int) (id TxID) {
		binary.BigEndian.PutUint64(id[8:], uint64(i))
		id[0] = byte(i)
		return id
	}
	c := NewSigCache(0)
	var at10k uint64
	for i := 0; i < 100_000; i++ {
		c.Add(id(i))
		if i >= 2*block && i%block == 0 {
			for j := i - 2*block; j < i-block; j++ {
				c.Forget(id(j))
			}
		}
		if i == 10_000 {
			at10k = heap()
		}
	}
	if c.Len() > 2*block+1 {
		t.Fatalf("%d resident ids, want at most two blocks", c.Len())
	}
	// A leak of one id per transaction would be 3 MB here; the runtime's
	// map may resize a shard or two as residency wobbles.
	if at100k := heap(); at100k > at10k+256<<10 {
		t.Fatalf("cache heap grew from %d to %d bytes between 10k and 100k ids at constant residency", at10k, at100k)
	}
	runtime.KeepAlive(c)
}

// TestDecodeMalformedInputs is the regression suite for attacker-supplied
// bytes: hostile length prefixes, truncations and trailing garbage must
// error cleanly — never panic, never allocate beyond the input's actual
// remaining length.
func TestDecodeMalformedInputs(t *testing.T) {
	tx := mustTx(t, signer("mal"), 0, "news.publish", "body")
	goodTx := tx.Encode()
	goodBlk := buildBlock([]*Tx{tx}).Encode()

	hugeLen := func(raw []byte, off int) []byte {
		out := append([]byte{}, raw...)
		binary.BigEndian.PutUint32(out[off:], 0xFFFFFFFF)
		return out
	}
	cases := []struct {
		name string
		tx   bool
		raw  []byte
	}{
		{"tx empty", true, nil},
		{"tx truncated sender", true, goodTx[:10]},
		{"tx huge kind length", true, hugeLen(goodTx, 28)}, // kind prefix after 20B sender + 8B nonce
		{"tx trailing bytes", true, append(append([]byte{}, goodTx...), 0xAA)},
		{"blk empty", false, nil},
		{"blk truncated header", false, goodBlk[:7]},
		{"blk huge header length", false, hugeLen(goodBlk, 0)},
		{"blk trailing bytes", false, append(append([]byte{}, goodBlk...), 0xBB)},
		{"blk tx count beyond data", false, func() []byte {
			out := append([]byte{}, goodBlk...)
			// The tx-count word sits right after the length-prefixed header.
			off := 4 + int(binary.BigEndian.Uint32(goodBlk[:4]))
			binary.BigEndian.PutUint32(out[off:], 0xFFFFFFFF)
			return out
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.tx {
				_, err = DecodeTx(tc.raw)
			} else {
				_, err = DecodeBlock(tc.raw)
			}
			if err == nil {
				t.Fatalf("malformed input decoded without error")
			}
		})
	}

	// Sanity: the unmutated encodings still round-trip byte-identically.
	dtx, err := DecodeTx(goodTx)
	if err != nil || !bytes.Equal(dtx.Encode(), goodTx) {
		t.Fatalf("tx round trip: err=%v", err)
	}
	dblk, err := DecodeBlock(goodBlk)
	if err != nil || !bytes.Equal(dblk.Encode(), goodBlk) {
		t.Fatalf("block round trip: err=%v", err)
	}
}

// TestTxMemoInvalidatedOnSign ensures re-signing refreshes the derived
// bytes rather than serving a stale memo.
func TestTxMemoInvalidatedOnSign(t *testing.T) {
	alice := signer("memo")
	tx := mustTx(t, alice, 3, "k", "payload")
	id1, enc1 := tx.ID(), tx.Encode()
	tx.Payload = []byte("different payload")
	if err := tx.Sign(alice); err != nil {
		t.Fatal(err)
	}
	if tx.ID() == id1 {
		t.Fatal("ID memo not invalidated by Sign")
	}
	if bytes.Equal(tx.Encode(), enc1) {
		t.Fatal("Encode memo not invalidated by Sign")
	}
	if err := tx.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTxMemoOneBuffer pins what building the memo costs: the signing
// bytes are a prefix of the encoding, so one buffer holds both. The three
// allocations are that buffer, the memo itself and the hasher.
func TestTxMemoOneBuffer(t *testing.T) {
	tx := mustTx(t, signer("memo-allocs"), 1, "news.publish", "a payload of ordinary size")
	allocs := testing.AllocsPerRun(100, func() {
		tx.memo.Store(nil)
		tx.memoized()
	})
	if allocs > 3 {
		t.Fatalf("(*Tx).memoized allocates %.0f times, want at most 3", allocs)
	}
	m := tx.memoized()
	if !bytes.HasPrefix(m.encoded, tx.signingBytes()) {
		t.Fatal("encoding does not start with the signing bytes")
	}
	if m.id != hashTx(tx.signingBytes(), tx.PubKey, tx.Sig) {
		t.Fatal("memoized id differs from the hash of the current fields")
	}
}

// BenchmarkBlockVerify measures block-body validation at 1k txs/block:
// the serial baseline (Block.ValidateBody), the parallel pipeline on a
// cold cache, and the pipeline in its steady state where every signature
// was cached at mempool admission. The perf_opt acceptance target is
// >=3x pipeline-vs-serial on 8 cores; on fewer cores the cached mode
// carries the win (it skips the ed25519 op entirely).
func BenchmarkBlockVerify(b *testing.B) {
	const n = 1000
	txs := signedTxs(b, "bench-verify", n)
	blk := buildBlock(txs)

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := blk.ValidateBody(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		v := NewVerifier(nil, 0) // no cache: measures pure fan-out
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := v.ValidateBody(blk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline-cached", func(b *testing.B) {
		v := NewVerifier(NewSigCache(2*n), 0)
		if err := v.ValidateBody(blk); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := v.ValidateBody(blk); err != nil {
				b.Fatal(err)
			}
		}
	})
}
