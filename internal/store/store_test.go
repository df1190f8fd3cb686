package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/quick"
)

func TestMemLogAppendGet(t *testing.T) {
	l := NewMemLog()
	for i := 0; i < 10; i++ {
		idx, err := l.Append([]byte("rec" + strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(i) {
			t.Fatalf("idx=%d want %d", idx, i)
		}
	}
	if l.Len() != 10 {
		t.Fatalf("len=%d", l.Len())
	}
	got, err := l.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "rec7" {
		t.Fatalf("got %q", got)
	}
}

func TestMemLogGetOutOfRange(t *testing.T) {
	l := NewMemLog()
	if _, err := l.Get(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestMemLogCopiesOnAppend(t *testing.T) {
	l := NewMemLog()
	rec := []byte("original")
	l.Append(rec)
	rec[0] = 'X'
	got, _ := l.Get(0)
	if string(got) != "original" {
		t.Fatal("Append must copy the record")
	}
}

func TestMemKVBasic(t *testing.T) {
	kv := NewMemKV()
	if err := kv.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	got, err := kv.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1" {
		t.Fatalf("got %q", got)
	}
	if err := kv.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after delete, got %v", err)
	}
}

func TestMemKVKeysPrefix(t *testing.T) {
	kv := NewMemKV()
	for _, k := range []string{"news/1", "news/2", "fact/1", "news/10"} {
		kv.Put(k, []byte("x"))
	}
	keys, err := kv.Keys("news/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"news/1", "news/10", "news/2"}
	if len(keys) != len(want) {
		t.Fatalf("keys=%v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys=%v want %v", keys, want)
		}
	}
}

func TestMemKVSnapshotIsolated(t *testing.T) {
	kv := NewMemKV()
	kv.Put("k", []byte("v1"))
	snap, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	kv.Put("k", []byte("v2"))
	if string(snap["k"]) != "v1" {
		t.Fatal("snapshot must be isolated from later writes")
	}
	snap["k"][0] = 'X'
	got, _ := kv.Get("k")
	if string(got) != "v2" {
		t.Fatal("mutating snapshot must not affect store")
	}
}

func TestMemKVRestore(t *testing.T) {
	kv := NewMemKV()
	kv.Put("a", []byte("1"))
	kv.Put("b", []byte("2"))
	snap, _ := kv.Snapshot()
	kv.Put("c", []byte("3"))
	kv.Delete("a")
	kv.Restore(snap)
	if _, err := kv.Get("c"); !errors.Is(err, ErrNotFound) {
		t.Fatal("restore must drop later keys")
	}
	got, err := kv.Get("a")
	if err != nil || string(got) != "1" {
		t.Fatalf("restore lost key a: %v %q", err, got)
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("block0"), []byte("block1"), bytes.Repeat([]byte("z"), 5000)}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != uint64(len(recs)) {
		t.Fatalf("len=%d want %d", l2.Len(), len(recs))
	}
	for i, want := range recs {
		got, err := l2.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestFileLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("good"))
	l.Append([]byte("also good"))
	l.Close()

	// Simulate a crash mid-write: append a partial frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 1}) // header fragment
	f.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 2 {
		t.Fatalf("len=%d want 2", l2.Len())
	}
	// The log must still be appendable after truncation.
	if _, err := l2.Append([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	got, _ := l2.Get(2)
	if string(got) != "recovered" {
		t.Fatalf("got %q", got)
	}
}

func TestFileLogDetectsInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("record-zero"))
	l.Append([]byte("record-one"))
	l.Close()

	// Flip a byte inside the first record's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenFileLog(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// A log of recomputable records ends at the first damaged one instead of
// refusing to open: what is left is intact, appendable and passes the
// strict open afterwards.
func TestFileLogTruncatingCutsAtCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "derived.log")
	l, err := OpenFileLogTruncating(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"record-zero", "record-one", "record-two", "record-three"} {
		if _, err := l.AppendUnsynced([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+len("record-zero")+8+len("record-one")+8+3] ^= 0xff // inside record two
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileLog(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open: want ErrCorrupt, got %v", err)
	}
	l, err = OpenFileLogTruncating(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("len %d after cutting at record 2, want 2", l.Len())
	}
	if got, err := l.Get(1); err != nil || string(got) != "record-one" {
		t.Fatalf("record 1 = %q, %v", got, err)
	}
	if idx, err := l.AppendUnsynced([]byte("record-two-again")); err != nil || idx != 2 {
		t.Fatalf("append after the cut: index %d, %v", idx, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	strict, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("strict open after the repair: %v", err)
	}
	defer strict.Close()
	if got, err := strict.Get(2); err != nil || string(got) != "record-two-again" || strict.Len() != 3 {
		t.Fatalf("record 2 = %q, %v, len %d", got, err, strict.Len())
	}
}

// A machine crash can extend an unsynced log without writing the data, and
// eight zero bytes frame a valid empty record. The truncating open ends the
// log there; so does a length that runs past the file, without allocating it.
func TestFileLogTruncatingCutsAtZeroFilledTail(t *testing.T) {
	cases := []struct {
		name string
		tail []byte
	}{
		{"two zero frames", make([]byte, 16)},
		{"zero frames and a torn one", make([]byte, 21)},
		{"length past the file", []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "derived.log")
			l, err := OpenFileLogTruncating(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []string{"record-zero", "record-one"} {
				if _, err := l.AppendUnsynced([]byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()
			l, err = OpenFileLogTruncating(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if l.Len() != 2 {
				t.Fatalf("len %d, want the 2 written records", l.Len())
			}
			if idx, err := l.AppendUnsynced([]byte("record-two")); err != nil || idx != 2 {
				t.Fatalf("append after the cut: index %d, %v", idx, err)
			}
			if got, err := l.Get(2); err != nil || string(got) != "record-two" {
				t.Fatalf("record 2 = %q, %v", got, err)
			}
		})
	}
}

// A log of records nothing can recompute loses only the damaged one: the
// records after it keep being read, under numbers that close the gap, and
// an append goes after the damaged frame. A torn tail is still cut.
func TestFileLogSkippingKeepsRecordsAfterDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blobs.log")
	l, err := OpenFileLogSkipping(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"record-zero", "record-one", "record-two"} {
		if _, err := l.AppendUnsynced([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+len("record-zero")+8+3] ^= 0xff                   // inside record one
	raw = append(raw, frame([]byte("torn record"))[:12]...) // and a torn tail
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = OpenFileLogSkipping(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"record-zero", "record-two"}
	if l.Len() != uint64(len(want)) {
		t.Fatalf("len %d, want %d", l.Len(), len(want))
	}
	if idx, err := l.AppendUnsynced([]byte("record-three")); err != nil || idx != 2 {
		t.Fatalf("append after the damage: index %d, %v", idx, err)
	}
	l.Close()
	l, err = OpenFileLogSkipping(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, w := range append(want, "record-three") {
		if got, err := l.Get(uint64(i)); err != nil || string(got) != w {
			t.Fatalf("record %d = %q, %v; want %q", i, got, err, w)
		}
	}
}

// A damaged length field costs only its own record too: whether it reads
// zero, runs past the file, or points into or past later records, replay
// finds the next sound frame and keeps every record after the damaged one.
// The file keeps them across a second open; only a torn tail is cut.
func TestFileLogSkippingResyncsPastDamagedLength(t *testing.T) {
	recs := []string{"record-zero", "record-one", "record-two", "record-three"}
	one := uint32(len(recs[1]))
	cases := []struct {
		name string
		size uint32 // what record one's length field reads
	}{
		{"zero", 0},
		{"past the file", 0xffffffff},
		{"shorter", one - 3},
		{"longer, into a later record", one + 5},
		{"longer, onto a later frame", one + 8 + uint32(len(recs[2]))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "blobs.log")
			l, err := OpenFileLogSkipping(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if _, err := l.AppendUnsynced([]byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint32(raw[8+len(recs[0]):], tc.size)
			raw = append(raw, frame([]byte("torn record"))[:12]...)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			want := []string{recs[0], recs[2], recs[3]}
			for open := 0; open < 2; open++ {
				l, err := OpenFileLogSkipping(path)
				if err != nil {
					t.Fatalf("open %d: %v", open, err)
				}
				if l.Len() != uint64(len(want)) {
					t.Fatalf("open %d: len %d, want %d", open, l.Len(), len(want))
				}
				for i, w := range want {
					if got, err := l.Get(uint64(i)); err != nil || string(got) != w {
						t.Fatalf("open %d: record %d = %q, %v; want %q", open, i, got, err, w)
					}
				}
				l.Close()
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(len(raw)-12) {
				t.Fatalf("log is %d bytes after the opens, want %d: only the torn tail cut", st.Size(), len(raw)-12)
			}
		})
	}
}

// ReadAt reads a piece of one record, with io.ReaderAt's short-read
// contract, and Truncate drops records from an index on; MemLog and
// FileLog agree on both.
func TestLogReadAtAndTruncate(t *testing.T) {
	type partialLog interface {
		AppendUnsynced(rec []byte) (uint64, error)
		Get(i uint64) ([]byte, error)
		ReadAt(i uint64, off int64, buf []byte) (int, error)
		RecordLen(i uint64) (int, error)
		Truncate(n uint64) error
		Len() uint64
	}
	path := filepath.Join(t.TempDir(), "index.log")
	fl, err := OpenFileLogTruncating(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for name, l := range map[string]partialLog{"mem": NewMemLog(), "file": fl} {
		t.Run(name, func(t *testing.T) {
			for _, rec := range []string{"alpha", "bravo-charlie", "delta"} {
				if _, err := l.AppendUnsynced([]byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, 7)
			if n, err := l.ReadAt(1, 6, buf); err != nil || string(buf[:n]) != "charlie" {
				t.Fatalf("ReadAt(1, 6) = %q, %v", buf[:n], err)
			}
			if n, err := l.ReadAt(1, 10, buf); err != io.EOF || string(buf[:n]) != "lie" {
				t.Fatalf("ReadAt past the end = %q, %v; want \"lie\", io.EOF", buf[:n], err)
			}
			if _, err := l.ReadAt(1, 14, buf); err == nil {
				t.Fatal("ReadAt beyond the record succeeded")
			}
			if _, err := l.ReadAt(3, 0, buf); !errors.Is(err, ErrNotFound) {
				t.Fatalf("ReadAt of a missing record: %v", err)
			}
			if n, err := l.RecordLen(1); err != nil || n != len("bravo-charlie") {
				t.Fatalf("RecordLen(1) = %d, %v", n, err)
			}
			if err := l.Truncate(1); err != nil {
				t.Fatal(err)
			}
			if l.Len() != 1 {
				t.Fatalf("len %d after Truncate(1)", l.Len())
			}
			if idx, err := l.AppendUnsynced([]byte("echo")); err != nil || idx != 1 {
				t.Fatalf("append after Truncate: %d, %v", idx, err)
			}
			if got, err := l.Get(1); err != nil || string(got) != "echo" {
				t.Fatalf("record 1 = %q, %v", got, err)
			}
		})
	}
	fl.Close()
	re, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("strict reopen after Truncate: %v", err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reopened len %d, want 2", re.Len())
	}
}

func TestFileLogClosedErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("x"))
	l.Close()
	if _, err := l.Append([]byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := l.Get(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestFileLogEmptyReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.log")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 0 {
		t.Fatalf("len=%d", l2.Len())
	}
}

// Property: a MemKV behaves like a plain map under an arbitrary sequence of
// put/delete operations.
func TestMemKVModelProperty(t *testing.T) {
	type op struct {
		Key    string
		Val    []byte
		Delete bool
	}
	f := func(ops []op) bool {
		kv := NewMemKV()
		model := make(map[string]string)
		for _, o := range ops {
			if o.Delete {
				kv.Delete(o.Key)
				delete(model, o.Key)
				continue
			}
			kv.Put(o.Key, o.Val)
			model[o.Key] = string(o.Val)
		}
		snap, err := kv.Snapshot()
		if err != nil {
			return false
		}
		if len(snap) != len(model) {
			return false
		}
		for k, v := range model {
			if string(snap[k]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: file log round-trips arbitrary record sequences.
func TestFileLogRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	n := 0
	f := func(recs [][]byte) bool {
		n++
		path := filepath.Join(dir, "log"+strconv.Itoa(n))
		l, err := OpenFileLog(path)
		if err != nil {
			return false
		}
		for _, r := range recs {
			if _, err := l.Append(r); err != nil {
				return false
			}
		}
		l.Close()
		l2, err := OpenFileLog(path)
		if err != nil {
			return false
		}
		defer l2.Close()
		if l2.Len() != uint64(len(recs)) {
			return false
		}
		for i, want := range recs {
			got, err := l2.Get(uint64(i))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// drained applies one DrainDirty to a model of what earlier drains told
// the caller, the way the contract engine keeps its state trie.
func drained(kv *MemKV, model map[string]string) (n int, all bool) {
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
// says so.
func TestDrainDirtyTracksChanges(t *testing.T) {
	// One case: MemKV is the only store (the sharded case went with ShardedKV).
	t.Run("flat", func(t *testing.T) {
		kv := NewMemKV()
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
			_ = kv.Put("k"+strconv.Itoa(i), []byte{byte(i)})
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
			_ = kv.Delete("k" + strconv.Itoa(i))
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

func BenchmarkMemLogAppend(b *testing.B) {
	l := NewMemLog()
	rec := bytes.Repeat([]byte("t"), 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(rec)
	}
}

func BenchmarkMemKVPutGet(b *testing.B) {
	kv := NewMemKV()
	val := bytes.Repeat([]byte("v"), 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := "key" + strconv.Itoa(i%1024)
		kv.Put(k, val)
		kv.Get(k)
	}
}
