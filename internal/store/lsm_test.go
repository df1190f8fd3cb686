package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// lsmOracle drives an LSM on a file log and a MemKV side by side.
type lsmOracle struct {
	t      *testing.T
	path   string
	log    *FileLog
	lsm    *LSM
	oracle *MemKV
	rng    *rand.Rand
	seals  int
	// manifest is the last one taken, atManifest the oracle's contents then.
	manifest   []byte
	atManifest map[string][]byte
	// ran counts the paths a run took.
	ran map[string]int
}

func newLSMOracle(t *testing.T, seed int64) *lsmOracle {
	o := &lsmOracle{t: t, path: filepath.Join(t.TempDir(), "state.log"), oracle: NewMemKV(), rng: rand.New(rand.NewSource(seed)), ran: map[string]int{}}
	o.open()
	t.Cleanup(func() { o.close() })
	return o
}

func (o *lsmOracle) open() {
	o.t.Helper()
	log, err := OpenFileLogTruncating(o.path)
	if err != nil {
		o.t.Fatal(err)
	}
	o.log, o.lsm = log, NewLSM(log, LSMConfig{SealEntries: 16, SealBytes: 8 << 10})
}

func (o *lsmOracle) close() {
	o.lsm.Close()
	o.log.Close()
}

// key picks from a few hundred keys under prefixes that nest.
func (o *lsmOracle) key() string {
	prefix := []string{"a/", "b/", "b/x/", "c/"}[o.rng.Intn(4)]
	return prefix + strconv.Itoa(o.rng.Intn(80))
}

func (o *lsmOracle) value() []byte {
	n := o.rng.Intn(40)
	if o.rng.Intn(50) == 0 {
		n = segmentPageBytes + o.rng.Intn(3000) // a page of its own
	}
	v := make([]byte, n)
	o.rng.Read(v)
	return v
}

// write puts or deletes a random key in both stores.
func (o *lsmOracle) write() {
	k := o.key()
	if o.rng.Intn(4) == 0 {
		_ = o.lsm.Delete(k)
		_ = o.oracle.Delete(k)
		return
	}
	v := o.value()
	_ = o.lsm.Put(k, v)
	_ = o.oracle.Put(k, v)
}

func (o *lsmOracle) seal() {
	o.t.Helper()
	o.seals++
	if err := o.lsm.SealIfDue(uint64(o.seals), []byte("meta")); err != nil {
		o.t.Fatal(err)
	}
}

func (o *lsmOracle) takeManifest() {
	o.t.Helper()
	var err error
	if o.manifest, err = o.lsm.Manifest(); err != nil {
		o.t.Fatal(err)
	}
	o.atManifest, _ = o.oracle.Snapshot()
}

// check compares point reads, prefix scans and the full contents.
func (o *lsmOracle) check(stage string) {
	o.t.Helper()
	checkLSMAgainst(o.t, stage, o.lsm, o.oracle, o.rng)
}

func checkLSMAgainst(t *testing.T, stage string, lsm *LSM, oracle *MemKV, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < 40; i++ {
		k := []string{"a/", "b/", "b/x/", "c/", "zz/"}[rng.Intn(5)] + strconv.Itoa(rng.Intn(80))
		got, err := lsm.Get(k)
		want, werr := oracle.Get(k)
		if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(%s) = %x, %v; oracle %x, %v", stage, k, got, err, want, werr)
		}
		if err != nil && (!errors.Is(err, ErrNotFound) || err.Error() != werr.Error()) {
			t.Fatalf("%s: Get(%s) error %q, oracle %q", stage, k, err, werr)
		}
	}
	for _, prefix := range []string{"", "a/", "b/", "b/x/", "c/1", "zz/", "b/x/7"} {
		got, err := lsm.Keys(prefix)
		if err != nil {
			t.Fatalf("%s: Keys(%q): %v", stage, prefix, err)
		}
		want, _ := oracle.Keys(prefix)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Keys(%q) = %v\noracle %v", stage, prefix, got, want)
		}
	}
	got, err := lsm.Snapshot()
	if err != nil {
		t.Fatalf("%s: Snapshot: %v", stage, err)
	}
	want, _ := oracle.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, oracle %d", stage, len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || !bytes.Equal(g, v) {
			t.Fatalf("%s: %s = %x, oracle %x", stage, k, g, v)
		}
	}
}

// The LSM against a plain map: random puts, overwrites and deletes with
// point reads and prefix scans between them, across seals and merges (one
// held in flight while the store is read, written, sealed and described),
// manifests and reopens from them — once over a log whose tail was torn
// after the manifest — and rewrites that drop dead records.
func TestLSMMatchesMemKVOracle(t *testing.T) {
	ran := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for path, n := range runLSMOracle(t, seed) {
				ran[path] += n
			}
		})
	}
	t.Logf("paths taken: %v", ran)
	for _, path := range []string{"reopen", "torn reopen", "held merge", "rewrite"} {
		if ran[path] == 0 {
			t.Errorf("no run took the %s path", path)
		}
	}
}

func runLSMOracle(t *testing.T, seed int64) map[string]int {
	o := newLSMOracle(t, seed)
	for step := 0; step < 1500; step++ {
		o.write()
		switch r := o.rng.Intn(100); {
		case r < 12:
			o.seal()
		case r < 15:
			o.check(fmt.Sprintf("step %d", step))
		case r < 17:
			o.takeManifest()
		case r < 18 && o.manifest != nil:
			// Reopen from the last manifest, now and then over a log whose
			// last record lost its end after the manifest was taken.
			torn := false
			o.lsm.WaitMerges()
			if last := o.lastPinned(); o.log.Len() > last+1 && o.rng.Intn(2) == 0 {
				torn = true
			}
			o.close()
			if torn {
				st, err := os.Stat(o.path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(o.path, st.Size()-3); err != nil {
					t.Fatal(err)
				}
			}
			o.open()
			if err := o.lsm.RestoreManifest(o.manifest); err != nil {
				t.Fatalf("step %d: restore (torn=%v): %v", step, torn, err)
			}
			o.oracle.Restore(o.atManifest)
			o.check(fmt.Sprintf("step %d, reopened (torn=%v)", step, torn))
			o.ran["reopen"]++
			if torn {
				o.ran["torn reopen"]++
			}
		case r < 19:
			o.heldMerge(step)
			o.ran["held merge"]++
		case r < 20:
			o.lsm.WaitMerges()
			rewrote, err := o.lsm.Reclaim()
			if err != nil {
				t.Fatal(err)
			}
			if rewrote {
				o.ran["rewrite"]++
			}
			o.check(fmt.Sprintf("step %d, reclaimed", step))
		}
	}
	o.lsm.WaitMerges()
	o.check("final")
	st := o.lsm.Stats()
	if st.Merges == 0 {
		t.Fatalf("no merge in %d seals: %+v", o.seals, st)
	}
	// Levels bound the segment count: at most mergeFanout-1 a level.
	if limit := (mergeFanout - 1) * (1 + int(math.Log(float64(o.seals))/math.Log(mergeFanout))); st.Segments > limit {
		t.Fatalf("%d segments after %d seals, want at most %d", st.Segments, o.seals, limit)
	}
	return o.ran
}

// lastPinned is the highest record the last manifest named.
func (o *lsmOracle) lastPinned() uint64 {
	o.lsm.mu.RLock()
	defer o.lsm.mu.RUnlock()
	var last uint64
	for _, seg := range o.lsm.pinned {
		last = max(last, seg.rec)
	}
	return last
}

// heldMerge seals until a merge starts, holds it after it has written its
// segment, and works on the store meanwhile.
func (o *lsmOracle) heldMerge(step int) {
	o.t.Helper()
	o.lsm.WaitMerges()
	written, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	mergeHook = func() {
		once.Do(func() { close(written) })
		<-release
	}
	defer func() {
		close(release)
		o.lsm.WaitMerges()
		mergeHook = nil
	}()
	for started := false; !started; {
		for !o.lsm.Due() {
			o.write()
		}
		o.seal()
		o.lsm.mu.RLock()
		started = o.lsm.merging
		o.lsm.mu.RUnlock()
	}
	<-written
	o.check(fmt.Sprintf("step %d, merge in flight", step))
	for i := 0; i < 40; i++ {
		o.write()
	}
	o.seal()
	o.takeManifest()
	o.check(fmt.Sprintf("step %d, merge in flight, written", step))
}

// Close waits for a merge in flight: a merge loop that a seal started
// merges even when Close marks the store closed before the loop takes its
// first lock.
func TestLSMCloseFinishesStartedMerge(t *testing.T) {
	s := NewLSM(NewMemLog(), LSMConfig{SealEntries: 1})
	started, proceed := make(chan struct{}), make(chan struct{})
	loopHook = func() {
		close(started)
		<-proceed
	}
	defer func() { loopHook = nil }()
	for i := 0; i < mergeFanout; i++ {
		if err := s.Put(fmt.Sprintf("k/%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.SealIfDue(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for isClosed := false; !isClosed; runtime.Gosched() {
		s.mu.RLock()
		isClosed = s.closed
		s.mu.RUnlock()
	}
	close(proceed)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Merges != 1 || st.Segments != 1 {
		t.Fatalf("after Close: %+v, want the started merge done", st)
	}
}

// Scan hands out every live key once, in order, across the batches it
// copies out under the lock, with keys in the memtable, in segments and
// deleted on either side of a batch boundary.
func TestLSMScanInBatches(t *testing.T) {
	s := NewLSM(NewMemLog(), LSMConfig{SealEntries: 700})
	oracle := NewMemKV()
	for i := 0; i < 3*scanBatch; i++ {
		k := fmt.Sprintf("k/%05d", i)
		if i%7 == 3 {
			_ = s.Delete(fmt.Sprintf("k/%05d", i-1))
			_ = oracle.Delete(fmt.Sprintf("k/%05d", i-1))
		}
		_ = s.Put(k, []byte(k))
		_ = oracle.Put(k, []byte(k))
		if err := s.SealIfDue(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitMerges()
	for _, prefix := range []string{"", "k/01", "none"} {
		want, _ := oracle.Keys(prefix)
		var got []string
		if err := s.Scan(prefix, func(key string, val []byte) error {
			if key != string(val) {
				t.Fatalf("%s holds %q", key, val)
			}
			got = append(got, key)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Scan(%q) gave %d keys, oracle %d", prefix, len(got), len(want))
		}
	}
}

// A reader runs beside the writer, seals and merges: keys written once at
// the start always read back the same, and their prefix lists exactly them
// (run with -race).
func TestLSMReadsDuringSealsAndMerges(t *testing.T) {
	o := newLSMOracle(t, 9)
	stable := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k, v := "stable/"+strconv.Itoa(i), []byte("v"+strconv.Itoa(i))
		stable[k] = v
		_ = o.lsm.Put(k, v)
	}
	o.seal()
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
			for k, v := range stable {
				if got, err := o.lsm.Get(k); err != nil || !bytes.Equal(got, v) {
					t.Errorf("Get(%s) = %q, %v", k, got, err)
					return
				}
			}
			if ks, err := o.lsm.Keys("stable/"); err != nil || len(ks) != len(stable) {
				t.Errorf("Keys(stable/) = %d keys, %v", len(ks), err)
				return
			}
		}
	}()
	for step := 0; step < 2000; step++ {
		o.write()
		if step%8 == 0 {
			o.seal()
		}
	}
	close(stop)
	wg.Wait()
	o.lsm.WaitMerges()
	if st := o.lsm.Stats(); st.Merges == 0 {
		t.Fatalf("no merge ran beside the reader: %+v", st)
	}
}

// A manifest whose segments the log does not hold, or holds damaged, is
// refused and leaves the store empty.
func TestLSMRestoreManifestRefusesMismatch(t *testing.T) {
	o := newLSMOracle(t, 4)
	for i := 0; i < 200; i++ {
		o.write()
		if i%20 == 19 {
			o.seal()
		}
	}
	manifest, err := o.lsm.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	o.close()
	raw, err := os.ReadFile(o.path)
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func() []byte{
		"missing":      func() []byte { return nil },
		"flipped byte": func() []byte { b := bytes.Clone(raw); b[len(b)/3] ^= 0xff; return b },
	} {
		if err := os.WriteFile(o.path, damage(), 0o644); err != nil {
			t.Fatal(err)
		}
		o.open()
		if err := o.lsm.RestoreManifest(manifest); err == nil {
			t.Fatalf("%s: manifest restored over a log that lacks its segments", name)
		}
		if st := o.lsm.Stats(); st.Segments != 0 || st.Memory != 0 {
			t.Fatalf("%s: store after a refused manifest: %+v", name, st)
		}
		o.close()
	}
	o.open()
	for _, bad := range [][]byte{manifest[:len(manifest)-1], append(bytes.Clone(manifest), 0), []byte("not a manifest")} {
		if err := o.lsm.RestoreManifest(bad); err == nil {
			t.Fatalf("malformed manifest %x restored", bad)
		}
	}
}

// Recover rebuilds the segment list from the log by heights: merges take
// the place of what they merged, and the log is cut at a record that does
// not continue the list.
func TestLSMRecoverByHeights(t *testing.T) {
	o := newLSMOracle(t, 5)
	for i := 0; i < 600; i++ {
		o.write()
		if i%10 == 9 {
			o.seal()
			o.lsm.WaitMerges()
		}
	}
	for !o.lsm.Due() {
		o.write()
	}
	o.seal()
	o.lsm.WaitMerges()
	want, _ := o.lsm.Snapshot()
	segs := o.lsm.Stats().Segments
	o.close()
	// A stale record after the live ones: heights the list does not reach.
	log, err := OpenFileLogTruncating(o.path)
	if err != nil {
		t.Fatal(err)
	}
	stale := NewLSM(NewMemLog(), LSMConfig{SealEntries: 1})
	_ = stale.Put("stale", []byte("x"))
	if err := stale.SealIfDue(1_000_000, nil); err != nil {
		t.Fatal(err)
	}
	rec, _ := stale.log.(*MemLog).Get(0)
	if _, err := log.Append(rec); err != nil {
		t.Fatal(err)
	}
	n := log.Len()
	log.Close()

	o.open()
	next, err := o.lsm.Recover(func(from, to uint64, meta []byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if next != uint64(o.seals)+1 || o.lsm.Stats().Segments != segs || o.log.Len() != n-1 {
		t.Fatalf("recovered to height %d with %d segments over %d records; want %d, %d, %d", next, o.lsm.Stats().Segments, o.log.Len(), o.seals+1, segs, n-1)
	}
	got, _ := o.lsm.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("%d keys recovered, %d before", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("%s recovered as %x, was %x", k, got[k], v)
		}
	}
}

// A record written through AppendStream while other records are appended
// after it reads back whole once closed, survives a reopen, and Rewrite
// keeps just the records it is asked to, in their new order.
func TestLogAppendStreamAndRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.log")
	for name, l := range map[string]SegmentLog{"file": mustOpenFileLog(t, path), "mem": NewMemLog()} {
		t.Run(name, func(t *testing.T) {
			big := bytes.Repeat([]byte("0123456789"), 20_000)
			if _, err := l.AppendUnsynced([]byte("first")); err != nil {
				t.Fatal(err)
			}
			rec, w, err := l.AppendStream(int64(len(big)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendUnsynced([]byte("after")); err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(big); off += 7_000 {
				if _, err := w.Write(big[off:min(off+7_000, len(big))]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Write([]byte("x")); err == nil {
				t.Fatal("a stream record took a byte past its length")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(big))
			if _, err := l.ReadAt(rec, 0, got); err != nil || !bytes.Equal(got, big) {
				t.Fatalf("stream record read back wrong: %v", err)
			}
			if err := l.Rewrite([]uint64{2, rec}); err != nil {
				t.Fatal(err)
			}
			if l.Len() != 2 {
				t.Fatalf("%d records after the rewrite", l.Len())
			}
			first := make([]byte, 5)
			if _, err := l.ReadAt(0, 0, first); err != nil || string(first) != "after" {
				t.Fatalf("record 0 after the rewrite: %q, %v", first, err)
			}
			if _, err := l.ReadAt(1, 0, got); err != nil || !bytes.Equal(got, big) {
				t.Fatalf("record 1 after the rewrite: %v", err)
			}
			if fl, ok := l.(*FileLog); ok {
				fl.Close()
				re, err := OpenFileLog(path)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if v, err := re.Get(1); err != nil || !bytes.Equal(v, big) || re.Len() != 2 {
					t.Fatalf("reopened rewritten log: %d records, %v", re.Len(), err)
				}
			}
		})
	}
}

// An unfinished stream record fails its checksum at the next open.
func TestLogAppendStreamUnfinishedIsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.log")
	l := mustOpenFileLog(t, path)
	if _, err := l.AppendUnsynced([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	_, w, err := l.AppendStream(1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendUnsynced([]byte("behind the hole")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	re, err := OpenFileLogTruncating(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("%d records survive an unfinished stream record, want 1", re.Len())
	}
}

func mustOpenFileLog(t *testing.T, path string) *FileLog {
	t.Helper()
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// FuzzStateSegment reads hostile bytes as a segment: loading it fails, or
// every entry can be walked and any key looked up without a panic, and the
// load allocates no more than a few times the record's size.
func FuzzStateSegment(f *testing.F) {
	seal := func(n int, tombs bool) []byte {
		log := NewMemLog()
		s := NewLSM(log, LSMConfig{SealEntries: 1})
		_ = s.Put("first", nil) // kept: one segment exists, so tombstones are too
		if err := s.SealIfDue(0, nil); err != nil {
			f.Fatal(err)
		}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("contract/key/%05d", i)
			if tombs && i%3 == 0 {
				_ = s.Delete(k)
			} else {
				_ = s.Put(k, bytes.Repeat([]byte{byte(i)}, i%300))
			}
		}
		if err := s.SealIfDue(7, []byte("meta")); err != nil {
			f.Fatal(err)
		}
		rec, err := log.Get(1)
		if err != nil {
			f.Fatal(err)
		}
		return rec
	}
	good := seal(200, true)
	f.Add(good)
	f.Add(good[len(good)-segmentTrailerBytes:])
	f.Add(seal(1, false))
	huge := bytes.Clone(good)
	copy(huge[len(huge)-segmentTrailerBytes+2:], []byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(huge)

	f.Fuzz(func(t *testing.T, rec []byte) {
		log := NewMemLog()
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
		// TotalAlloc counts the whole process, the fuzzing engine's own
		// goroutines too: the quietest of three loads is the load's.
		var ms runtime.MemStats
		var seg *segment
		var err error
		grew := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			seg, err = loadSegment(log, 0)
			runtime.ReadMemStats(&ms)
			grew = min(grew, ms.TotalAlloc-before)
		}
		if grew > uint64(5*len(rec))+4096 {
			t.Fatalf("loading a %d-byte record allocated %d bytes", len(rec), grew)
		}
		if err != nil {
			return
		}
		it := &segIter{s: seg, log: log}
		for it.next() {
		}
		for _, k := range []string{"", "first", "contract/key/00007", "zzz"} {
			h1, h2 := keyHash(k)
			_, _, _, _ = seg.get(log, k, h1, h2)
		}
		for p := range seg.pageEnd {
			h1, h2 := keyHash(seg.fence(p))
			_, _, _, _ = seg.get(log, string(seg.fence(p)), h1, h2)
		}
	})
}

// benchStores fills an LSM (sealed into segments and merged, on a file log)
// and a MemKV with the same n keys of contract-state shape.
func benchStores(b *testing.B, n int) (*LSM, *MemKV, []string) {
	b.Helper()
	log, err := OpenFileLogTruncating(filepath.Join(b.TempDir(), "state.log"))
	if err != nil {
		b.Fatal(err)
	}
	s := NewLSM(log, LSMConfig{SealEntries: 4096, SealBytes: 1 << 20})
	b.Cleanup(func() { s.Close(); log.Close() })
	m := NewMemKV()
	keys := make([]string, n)
	val := make([]byte, 120)
	rng := rand.New(rand.NewSource(int64(n)))
	for i := range keys {
		keys[i] = fmt.Sprintf("rank/vote/item-%06d/%08d", i/16, rng.Intn(1<<30))
		rng.Read(val)
		_ = s.Put(keys[i], val)
		_ = m.Put(keys[i], val)
		if err := s.SealIfDue(uint64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	s.WaitMerges()
	return s, m, keys
}

var benchSink []byte

// BenchmarkStateGet prices a point read of the contract state: a key in the
// memtable, a key in a sealed segment (blooms, then one pread of one page
// from the page cache), and a key nobody wrote (blooms only), each against
// the map the state used to be.
func BenchmarkStateGet(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		s, m, keys := benchStores(b, n)
		hot := make([]string, 256)
		val := make([]byte, 120)
		for i := range hot {
			hot[i] = fmt.Sprintf("rank/bal/%08d", i)
			_ = s.Put(hot[i], val)
			_ = m.Put(hot[i], val)
		}
		absent := make([]string, 4096)
		for i := range absent {
			absent[i] = fmt.Sprintf("rank/vote/item-%06d/absent-%d", i, i)
		}
		b.Logf("%d keys: %+v", n, s.Stats())
		for _, c := range []struct {
			name string
			keys []string
			ok   bool
		}{{"memtable", hot, true}, {"sealed", keys, true}, {"miss", absent, false}} {
			for _, kv := range []struct {
				name string
				kv   KV
			}{{"lsm", s}, {"memkv", m}} {
				b.Run(fmt.Sprintf("keys=%d/%s/%s", n, c.name, kv.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						v, err := kv.kv.Get(c.keys[(i*7919)%len(c.keys)])
						if (err == nil) != c.ok {
							b.Fatalf("found=%v", err == nil)
						}
						benchSink = v
					}
				})
			}
		}
	}
}

// BenchmarkStateKeysPrefix prices the scan rank.votes does: the keys under
// one item's vote prefix (16 of them), against the map, which walks every
// key it holds.
func BenchmarkStateKeysPrefix(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		s, m, keys := benchStores(b, n)
		for _, kv := range []struct {
			name string
			kv   KV
		}{{"lsm", s}, {"memkv", m}} {
			b.Run(fmt.Sprintf("keys=%d/%s", n, kv.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k := keys[(i*7919)%len(keys)]
					got, err := kv.kv.Keys(k[:len("rank/vote/item-000000/")])
					if err != nil || len(got) == 0 {
						b.Fatalf("%d keys, %v", len(got), err)
					}
				}
			})
		}
	}
}
