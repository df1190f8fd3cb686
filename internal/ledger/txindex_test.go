package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/keys"
	"repro/internal/store"
)

// sealEvery lowers the seal threshold for one test, so that tests with a
// few hundred transactions cross it many times.
func sealEvery(t testing.TB, n int) {
	old := txIndexSealAt
	txIndexSealAt = n
	t.Cleanup(func() { txIndexSealAt = old })
}

// durableChain is a chain over chain.log and txindex.log in dir.
type durableChain struct {
	*Chain
	log, idx *store.FileLog
}

func (d *durableChain) close() {
	d.Chain.Close()
	d.log.Close()
	d.idx.Close()
}

// openDurable opens dir's logs and a chain over them, from the snapshot
// when one is given.
func openDurable(t testing.TB, dir string, snapshot []byte) *durableChain {
	t.Helper()
	log, err := store.OpenFileLog(filepath.Join(dir, "chain.log"))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := store.OpenFileLogTruncating(filepath.Join(dir, "txindex.log"))
	if err != nil {
		t.Fatal(err)
	}
	var c *Chain
	if snapshot != nil {
		c, err = NewChainFromSnapshot(log, idx, snapshot)
	} else {
		c, err = NewChain(log, idx)
	}
	if err != nil {
		t.Fatal(err)
	}
	return &durableChain{Chain: c, log: log, idx: idx}
}

// commitBlock appends a block of txs and seals the index as a platform
// does after every block, then lets any merge the seal started finish, so
// the index log's records come in one order whatever the scheduler does.
func commitBlock(t testing.TB, c *Chain, proposer *keys.KeyPair, txs []*Tx) *Block {
	t.Helper()
	b := appendBlock(t, c, proposer, txs)
	if err := c.SealTxIndex(); err != nil {
		t.Fatal(err)
	}
	c.txs.WaitMerges()
	return b
}

// absentID is an id no transaction has.
func absentID(i int) TxID {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return sha256.Sum256(append([]byte("absent"), b[:]...))
}

// The segmented index against a plain map: random blocks from several
// senders (empty ones too), seals at every threshold crossing, checkpoint
// and reopen through the snapshot or a full replay, sometimes with a seal
// left owed across the restart; every committed id must resolve to the
// oracle's location and no other id to anything.
func TestTxIndexMatchesMapOracle(t *testing.T) {
	sealEvery(t, 16)
	rng := rand.New(rand.NewSource(7))
	senders := []*keys.KeyPair{signer("o0"), signer("o1"), signer("o2")}
	nonces := make([]uint64, len(senders))
	oracle := make(map[TxID]TxLocation)
	dir := t.TempDir()
	d := openDurable(t, dir, nil)
	defer func() { d.close() }()

	check := func(stage string) {
		t.Helper()
		for id, want := range oracle {
			got, ok := d.TxLocation(id)
			if !ok || got != want {
				t.Fatalf("%s: TxLocation(%s) = %+v, %v; oracle %+v", stage, id.Short(), got, ok, want)
			}
		}
		for i := 0; i < 200; i++ {
			if loc, ok := d.TxLocation(absentID(i)); ok {
				t.Fatalf("%s: absent id found at %+v", stage, loc)
			}
		}
	}
	for step := 0; step < 120; step++ {
		var txs []*Tx
		for n := rng.Intn(10); len(txs) < n; {
			s := rng.Intn(len(senders))
			txs = append(txs, mustTx(t, senders[s], nonces[s], "k", string(rune('a'+len(txs)))))
			nonces[s]++
		}
		b := appendBlock(t, d.Chain, senders[0], txs)
		for i, tx := range txs {
			oracle[tx.ID()] = TxLocation{Height: b.Header.Height, Index: i, BlockID: b.ID()}
		}
		if rng.Intn(8) != 0 { // now and then the owner misses a seal
			if err := d.SealTxIndex(); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(15) == 0 {
			var snap []byte
			if rng.Intn(2) == 0 {
				var err error
				if snap, err = d.SnapshotState(); err != nil {
					t.Fatal(err)
				}
			}
			d.close()
			d = openDurable(t, dir, snap)
			check("reopened")
		}
	}
	check("final")
	if st := d.TxIndexStats(); st.Sealed == 0 || st.Memory+st.Sealed != len(oracle) {
		t.Fatalf("stats %+v for %d committed txs", st, len(oracle))
	}
}

// Lookups run beside appends and seals: every answer is the one the
// oracle gives once its block is on the chain (run with -race).
func TestTxIndexLookupDuringSeal(t *testing.T) {
	sealEvery(t, 8)
	alice := signer("seal-race")
	c := NewMemChain()
	var ids []TxID
	var locs []TxLocation
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			n := len(ids)
			idsNow, locsNow := ids[:n:n], locs[:n:n]
			mu.Unlock()
			for i := range idsNow {
				if got, ok := c.TxLocation(idsNow[i]); !ok || got != locsNow[i] {
					t.Errorf("TxLocation(%s) = %+v, %v; want %+v", idsNow[i].Short(), got, ok, locsNow[i])
					return
				}
			}
		}
	}()
	for nonce := uint64(0); nonce < 300; {
		var txs []*Tx
		for i := 0; i < 5; i++ {
			txs = append(txs, mustTx(t, alice, nonce, "k", "x"))
			nonce++
		}
		b := appendBlock(t, c, alice, txs)
		mu.Lock()
		for i, tx := range txs {
			ids = append(ids, tx.ID())
			locs = append(locs, TxLocation{Height: b.Header.Height, Index: i, BlockID: b.ID()})
		}
		mu.Unlock()
		if err := c.SealTxIndex(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := c.TxIndexStats(); st.Sealed == 0 {
		t.Fatalf("no seal happened: %+v", st)
	}
}

// unreadableIndexLog is an index log whose pages stop reading once broken.
type unreadableIndexLog struct {
	*store.MemLog
	broken bool
}

var errUnreadable = errors.New("index page unreadable")

func (l *unreadableIndexLog) ReadAt(i uint64, off int64, buf []byte) (int, error) {
	if l.broken {
		return 0, errUnreadable
	}
	return l.MemLog.ReadAt(i, off, buf)
}

// A sealed entry whose page cannot be read is not reported as a
// transaction the chain does not hold: LookupTx and FindTx return the read
// error, not ErrTxNotFound; TxLocation, which has no error, says not found.
func TestLookupTxReportsUnreadablePage(t *testing.T) {
	sealEvery(t, 4)
	idx := &unreadableIndexLog{MemLog: store.NewMemLog()}
	c, err := NewChain(store.NewMemLog(), idx)
	if err != nil {
		t.Fatal(err)
	}
	alice := signer("unreadable")
	var txs []*Tx
	for nonce := uint64(0); nonce < 5; nonce++ {
		txs = append(txs, mustTx(t, alice, nonce, "k", "x"))
	}
	commitBlock(t, c, alice, txs)
	if st := c.TxIndexStats(); st.Sealed != len(txs) {
		t.Fatalf("index %+v, want every tx sealed", st)
	}
	idx.broken = true
	id := txs[2].ID()
	if _, ok, err := c.LookupTx(id); ok || !errors.Is(err, errUnreadable) {
		t.Fatalf("LookupTx = %v, %v; want the read error", ok, err)
	}
	if _, _, err := c.FindTx(id); !errors.Is(err, errUnreadable) || errors.Is(err, ErrTxNotFound) {
		t.Fatalf("FindTx err = %v; want the read error, not ErrTxNotFound", err)
	}
	if _, ok := c.TxLocation(id); ok {
		t.Fatal("TxLocation found a tx whose page cannot be read")
	}
	idx.broken = false
	if _, _, err := c.FindTx(id); err != nil {
		t.Fatalf("FindTx once the page reads again: %v", err)
	}
}

// Open keeps the segments that fit the chain and rebuilds the rest from the
// block log: a missing index, a torn or flipped last segment, segments of a
// longer chain, and a snapshot written before the index was segmented
// (which listed every tx in a field gob now drops: the one it lists here
// is a lie that must not be believed).
func TestOpenRebuildsTxIndex(t *testing.T) {
	sealEvery(t, 16)
	type fixture struct {
		dir        string
		snap       []byte
		atSnapshot []byte // chain.log at the snapshot
	}
	cases := []struct {
		name        string
		damage      func(t *testing.T, f fixture) []byte // returns the snapshot to open with
		wantRebuilt bool
		shorter     bool // the chain is cut back to the snapshot
	}{
		{name: "intact", damage: func(t *testing.T, f fixture) []byte { return f.snap }},
		{name: "intact, full replay", damage: func(t *testing.T, f fixture) []byte { return nil }},
		{name: "missing", wantRebuilt: true, damage: func(t *testing.T, f fixture) []byte {
			if err := os.Remove(filepath.Join(f.dir, "txindex.log")); err != nil {
				t.Fatal(err)
			}
			return f.snap
		}},
		{name: "torn last record", wantRebuilt: true, damage: func(t *testing.T, f fixture) []byte {
			path := filepath.Join(f.dir, "txindex.log")
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-5); err != nil {
				t.Fatal(err)
			}
			return f.snap
		}},
		{name: "flipped byte", wantRebuilt: true, damage: func(t *testing.T, f fixture) []byte {
			path := filepath.Join(f.dir, "txindex.log")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{name: "longer than the chain", shorter: true, damage: func(t *testing.T, f fixture) []byte {
			if err := os.WriteFile(filepath.Join(f.dir, "chain.log"), f.atSnapshot, 0o644); err != nil {
				t.Fatal(err)
			}
			return f.snap
		}},
		{name: "snapshot listing every tx", wantRebuilt: true, damage: func(t *testing.T, f fixture) []byte {
			if err := os.Remove(filepath.Join(f.dir, "txindex.log")); err != nil {
				t.Fatal(err)
			}
			var snap chainSnapshot
			if err := gob.NewDecoder(bytes.NewReader(f.snap)).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			type txRef struct {
				ID     TxID
				Height uint64
				Index  int
			}
			var buf bytes.Buffer
			old := struct {
				Height   uint64
				BlockIDs []BlockID
				Txs      []txRef
				Nonces   map[string]uint64
			}{snap.Height, snap.BlockIDs, []txRef{{ID: absentID(1)}}, snap.Nonces}
			if err := gob.NewEncoder(&buf).Encode(old); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := fixture{dir: t.TempDir()}
			d := openDurable(t, f.dir, nil)
			alice := signer("rebuild")
			oracle := make(map[TxID]TxLocation)
			var atSnap map[TxID]TxLocation
			for nonce := uint64(0); nonce < 200; {
				var txs []*Tx
				for i := 0; i < 7; i++ {
					txs = append(txs, mustTx(t, alice, nonce, "k", "x"))
					nonce++
				}
				b := commitBlock(t, d.Chain, alice, txs)
				for i, tx := range txs {
					oracle[tx.ID()] = TxLocation{Height: b.Header.Height, Index: i, BlockID: b.ID()}
				}
				if nonce == 105 {
					var err error
					if f.snap, err = d.SnapshotState(); err != nil {
						t.Fatal(err)
					}
					if f.atSnapshot, err = os.ReadFile(filepath.Join(f.dir, "chain.log")); err != nil {
						t.Fatal(err)
					}
					atSnap = make(map[TxID]TxLocation, len(oracle))
					for id, loc := range oracle {
						atSnap[id] = loc
					}
				}
			}
			sealed := d.TxIndexStats().Sealed
			d.close()

			re := openDurable(t, f.dir, tc.damage(t, f))
			defer re.close()
			want := oracle
			if tc.shorter {
				want = atSnap
			}
			for id, loc := range want {
				if got, ok := re.TxLocation(id); !ok || got != loc {
					t.Fatalf("TxLocation(%s) = %+v, %v; want %+v", id.Short(), got, ok, loc)
				}
				if _, _, err := re.FindTx(id); err != nil {
					t.Fatal(err)
				}
			}
			for id := range oracle {
				if _, ok := want[id]; !ok {
					if loc, ok := re.TxLocation(id); ok {
						t.Fatalf("tx of a dropped block found at %+v", loc)
					}
				}
			}
			for i := 0; i < 1000; i++ {
				if loc, ok := re.TxLocation(absentID(i)); ok {
					t.Fatalf("absent id found at %+v", loc)
				}
			}
			st := re.TxIndexStats()
			if got := st.Rebuilt > 0; got != tc.wantRebuilt {
				t.Fatalf("rebuilt %d segments, want rebuilt=%v", st.Rebuilt, tc.wantRebuilt)
			}
			if !tc.shorter && st.Sealed != sealed {
				t.Fatalf("%d entries sealed after the reopen, %d before", st.Sealed, sealed)
			}
			// The repair happens once.
			snap, err := re.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			re.close()
			again := openDurable(t, f.dir, snap)
			defer again.close()
			if st := again.TxIndexStats(); st.Rebuilt != 0 {
				t.Fatalf("second reopen rebuilt %d segments", st.Rebuilt)
			}
		})
	}
}

// presigned returns n transactions of kp from nonce on whose signatures the
// chain's verified-signature set already holds, as mempool admission leaves
// them: the volume tests measure the index, not ed25519.
func presigned(c *Chain, kp *keys.KeyPair, nonce uint64, n int) []*Tx {
	txs := make([]*Tx, n)
	for i := range txs {
		tx := &Tx{Sender: kp.Address(), Nonce: nonce + uint64(i), Kind: "k", PubKey: kp.Public(), Sig: make([]byte, 64)}
		c.verifier.cache.Add(tx.ID())
		txs[i] = tx
	}
	return txs
}

// What a durable chain keeps in memory does not grow with its history:
// 180 000 more committed transactions may grow the heap by 4 bytes each
// (segment blooms and page fences, block ids), the tail being the same
// size at both points. A map of every location cost ≈113 bytes each.
func TestTxIndexMemoryFlat(t *testing.T) {
	small, large := 20_000, 200_000
	// 500-transaction blocks seal every nine blocks, 4 500 entries a
	// segment, so both points leave 2 000 entries in the tail.
	const perBlock = 500
	d := openDurable(t, t.TempDir(), nil)
	defer d.close()
	kp := signer("flat")
	committed := 0
	commitTo := func(n int) {
		for ; committed < n; committed += perBlock {
			commitBlock(t, d.Chain, kp, presigned(d.Chain, kp, uint64(committed), perBlock))
		}
	}
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	commitTo(small)
	before, tailBefore := heapInUse(), d.TxIndexStats().Memory
	commitTo(large)
	after, st := heapInUse(), d.TxIndexStats()
	if st.Memory != tailBefore {
		t.Fatalf("tail %d entries, %d before: the comparison assumes equal tails", st.Memory, tailBefore)
	}
	grown := int64(after) - int64(before)
	perTx := float64(grown) / float64(large-small)
	t.Logf("heap in use %.2f MB after %d txs, %.2f MB after %d (%.2f B per tx; %d sealed, %d in memory)",
		float64(before)/(1<<20), small, float64(after)/(1<<20), large, perTx, st.Sealed, st.Memory)
	if perTx > 4 {
		t.Fatalf("heap grew %.2f bytes per committed tx, budget 4", perTx)
	}
}

// BenchmarkTxLocation prices one lookup: a hit in the tail (a map read), a
// hit in a sealed segment (blooms, then one pread of one page, from the
// page cache) and a miss (blooms only, but for their false positives).
// The chain has sealed 20 segments of 4 500 transactions, merged as they
// went.
func BenchmarkTxLocation(b *testing.B) {
	d := openDurable(b, b.TempDir(), nil)
	defer d.close()
	kp := signer("bench-loc")
	var sealedIDs, tailIDs []TxID
	for nonce := 0; nonce < 20*4500+2000; nonce += 500 {
		blk := commitBlock(b, d.Chain, kp, presigned(d.Chain, kp, uint64(nonce), 500))
		for _, tx := range blk.Txs {
			sealedIDs = append(sealedIDs, tx.ID())
		}
	}
	if st := d.TxIndexStats(); st.Memory != 2000 {
		b.Fatalf("index %+v", st)
	}
	b.Logf("%d segments", d.txs.Stats().Segments)
	tailIDs, sealedIDs = sealedIDs[len(sealedIDs)-2000:], sealedIDs[:len(sealedIDs)-2000]
	run := func(b *testing.B, ids []TxID, found bool) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := d.TxLocation(ids[(i*7919)%len(ids)]); ok != found {
				b.Fatalf("found=%v", ok)
			}
		}
	}
	b.Run("tail", func(b *testing.B) { run(b, tailIDs, true) })
	b.Run("sealed", func(b *testing.B) { run(b, sealedIDs, true) })
	absent := make([]TxID, 4096)
	for i := range absent {
		absent[i] = absentID(i)
	}
	b.Run("miss", func(b *testing.B) { run(b, absent, false) })
}

// BenchmarkTxLocationManySegments prices the lookups whose cost grew with
// history before segments merged: a miss, which checks the bloom of every
// segment (and reads a page for each false positive, about 1 % of them),
// and a hit among the oldest transactions, which checks every bloom before
// its segment. The index seals 1 024 segments of 4 096 entries — what
// about four million committed transactions make — and merges them as it
// goes; with four segments to a merge that leaves one. The index log is
// rewritten without the merged-away records every 64 seals, to keep it
// near its live 160 MB.
func BenchmarkTxLocationManySegments(b *testing.B) {
	const seals, perSeal = 1024, 4096
	sealEvery(b, perSeal)
	log, err := store.OpenFileLogTruncating(filepath.Join(b.TempDir(), "txindex.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	x := newTxIndex(log)
	defer x.Close()
	var oldest []TxID
	var val [2 * binary.MaxVarintLen64]byte
	for s := 0; s < seals; s++ {
		for i := 0; i < perSeal; i++ {
			var n [16]byte
			binary.BigEndian.PutUint64(n[:], uint64(s))
			binary.BigEndian.PutUint64(n[8:], uint64(i))
			id := TxID(sha256.Sum256(append([]byte("committed"), n[:]...)))
			if s == 0 {
				oldest = append(oldest, id)
			}
			k := binary.PutUvarint(val[:], uint64(s))
			k += binary.PutUvarint(val[k:], uint64(i))
			_ = x.Put(string(id[:]), val[:k])
		}
		if err := x.seal(uint64(s), BlockID{}); err != nil {
			b.Fatal(err)
		}
		if s%64 == 63 {
			x.WaitMerges()
			if _, err := x.Reclaim(); err != nil {
				b.Fatal(err)
			}
		}
	}
	x.WaitMerges()
	st := x.Stats()
	b.Logf("%d entries in %d segments after %d merges; log %.0f MB", st.Sealed, st.Segments, st.Merges, float64(st.LogBytes)/(1<<20))
	run := func(b *testing.B, ids []TxID, found bool) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := x.lookup(ids[(i*7919)%len(ids)]); ok != found || err != nil {
				b.Fatalf("found=%v, %v", ok, err)
			}
		}
	}
	b.Run("oldest", func(b *testing.B) { run(b, oldest, true) })
	absent := make([]TxID, 4096)
	for i := range absent {
		absent[i] = absentID(i)
	}
	b.Run("miss", func(b *testing.B) { run(b, absent, false) })
}

// FuzzTxIndexSegment reads hostile bytes as an index-log record: opening
// the index over it must keep it as a segment or cut it, every lookup then
// returns a location or an error without a panic, and the open must not
// allocate more than a few times what the record holds. (The segment codec
// itself has its own fuzz target, store's FuzzStateSegment.)
func FuzzTxIndexSegment(f *testing.F) {
	good := func(n int, to uint64) []byte {
		log := store.NewMemLog()
		x := newTxIndex(log)
		var val [2 * binary.MaxVarintLen64]byte
		for i := 0; i < n; i++ {
			id := absentID(i)
			k := binary.PutUvarint(val[:], to-uint64(i%5))
			k += binary.PutUvarint(val[k:], uint64(i))
			_ = x.Put(string(id[:]), val[:k])
		}
		if err := x.SealIfDue(to, make([]byte, len(BlockID{}))); err != nil {
			f.Fatal(err)
		}
		rec, err := log.Get(0)
		if err != nil {
			f.Fatal(err)
		}
		return rec
	}
	sealEvery(f, 1)
	seg := good(300, 14)
	f.Add(seg)
	f.Add(seg[len(seg)-42:]) // the trailer alone
	f.Add(good(1, 0))
	huge := bytes.Clone(seg)
	binary.BigEndian.PutUint64(huge[len(huge)-42+2:], math.MaxUint64) // the entry count
	f.Add(huge)

	f.Fuzz(func(t *testing.T, rec []byte) {
		// TotalAlloc counts the whole process, the fuzzing engine's own
		// goroutines too: the quietest of three opens is the open's.
		var ms runtime.MemStats
		var x txIndex
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			log := store.NewMemLog()
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
			x = newTxIndex(log)
			runtime.ReadMemStats(&ms)
			allocBefore := ms.TotalAlloc
			if _, err := x.Recover(func(from, to uint64, meta []byte) bool { return true }); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			grew = min(grew, ms.TotalAlloc-allocBefore)
		}
		if grew > uint64(5*len(rec))+4096 {
			t.Fatalf("opening a %d-byte record allocated %d bytes", len(rec), grew)
		}
		for i := 0; i < 300; i += 37 {
			_, _, _ = x.lookup(absentID(i))
		}
	})
}
