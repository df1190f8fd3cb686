package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// faultFile wraps an *os.File with injectable failures, standing in for
// a dying disk under the WAL.
type faultFile struct {
	*os.File
	// writeBudget, when >= 0, is the number of bytes remaining before
	// writes start failing; a partial count is written first (a short
	// write). -1 disables.
	writeBudget int
	// failSync makes Sync return an error.
	failSync bool
	// syncs counts Sync calls.
	syncs int
	// failTruncate makes Truncate return an error (so Append's rollback
	// cannot run, as in a crash between the write and the recovery).
	failTruncate bool
}

var errInjected = errors.New("injected disk fault")

func (f *faultFile) Write(p []byte) (int, error) {
	if f.writeBudget < 0 {
		return f.File.Write(p)
	}
	if f.writeBudget >= len(p) {
		f.writeBudget -= len(p)
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:f.writeBudget])
	f.writeBudget = 0
	return n, errInjected
}

func (f *faultFile) Sync() error {
	f.syncs++
	if f.failSync {
		return errInjected
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.File.Truncate(size)
}

func openFaultLog(t *testing.T, path string) (*faultFile, *FileLog) {
	t.Helper()
	raw, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{File: raw, writeBudget: -1}
	l, err := newFileLogOn(ff, failOnDamage)
	if err != nil {
		t.Fatal(err)
	}
	return ff, l
}

// AppendUnsynced hands the frame to the file without an fsync — the
// record is readable at once — and Sync pays the one that was owed; Append
// still syncs every record.
func TestAppendUnsyncedSkipsFsync(t *testing.T) {
	ff, l := openFaultLog(t, filepath.Join(t.TempDir(), "derived.log"))
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.AppendUnsynced([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := l.Get(2); err != nil || string(got) != "rec" {
		t.Fatalf("unsynced record = %q, %v", got, err)
	}
	if ff.syncs != 0 {
		t.Fatalf("%d fsyncs for 3 unsynced appends", ff.syncs)
	}
	if err := l.Sync(); err != nil || ff.syncs != 1 {
		t.Fatalf("Sync: %v, %d fsyncs", err, ff.syncs)
	}
	if _, err := l.Append([]byte("durable")); err != nil || ff.syncs != 2 {
		t.Fatalf("Append: %v, %d fsyncs", err, ff.syncs)
	}
	ff.failSync = true
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync over a failing disk: %v", err)
	}
}

// TestAppendShortWriteRollsBack injects a short write mid-frame: the
// append must fail, the partial frame must be rolled back, and the log
// must keep accepting appends afterwards with nothing lost.
func TestAppendShortWriteRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	ff, l := openFaultLog(t, path)
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}

	// Allow 3 bytes of the next frame through, then fail.
	ff.writeBudget = 3
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, errInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	ff.writeBudget = -1

	// The disk healed: the retry must land as record 1.
	idx, err := l.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("retry landed at index %d, want 1", idx)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reopened len %d want 2", re.Len())
	}
	for i, want := range [][]byte{[]byte("first"), []byte("second")} {
		got, err := re.Get(uint64(i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q (err=%v), want %q", i, got, err, want)
		}
	}
}

// TestAppendSyncFailureRollsBack injects an fsync failure after a fully
// flushed frame: the record is not durable, so Append must fail and roll
// the frame back rather than acknowledge it.
func TestAppendSyncFailureRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	ff, l := openFaultLog(t, path)
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}

	ff.failSync = true
	if _, err := l.Append([]byte("unsynced")); !errors.Is(err, errInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	ff.failSync = false
	if l.Len() != 1 {
		t.Fatalf("unsynced record counted: len %d", l.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reopened len %d want 1", re.Len())
	}
	got, err := re.Get(0)
	if err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("record 0 = %q (err=%v)", got, err)
	}
}

// TestAppendTornFrameRecoveredOnReopen injects a short write AND a
// failing truncate, so the rollback cannot run and a torn frame is left
// on disk — the moral equivalent of powering off mid-append. Reopen must
// truncate the torn tail and keep every complete record.
func TestAppendTornFrameRecoveredOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	ff, l := openFaultLog(t, path)
	if _, err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}

	ff.writeBudget = 11 // full header (8) + 3 payload bytes of the next frame
	ff.failTruncate = true
	if _, err := l.Append([]byte("torn-record")); !errors.Is(err, errInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	// Crash: close the raw file without FileLog's graceful close.
	if err := ff.File.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn frame really is on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= 13 { // 8+4 for "kept" plus some of the torn frame
		t.Fatalf("expected torn bytes on disk, file is %d bytes", len(raw))
	}

	re, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reopened len %d want 1", re.Len())
	}
	got, err := re.Get(0)
	if err != nil || !bytes.Equal(got, []byte("kept")) {
		t.Fatalf("record 0 = %q (err=%v)", got, err)
	}
	// And the recovered log accepts appends again.
	if idx, err := re.Append([]byte("after-recovery")); err != nil || idx != 1 {
		t.Fatalf("post-recovery append idx=%d err=%v", idx, err)
	}
}
