// Package store provides the persistence substrate for the ledger and the
// platform state: an append-only log of CRC-framed records, in memory or in
// a file, so a node can recover its chain after restart and tampering with
// the file is detected on replay; and a sorted-segment key-value store
// (LSM, lsm.go) over such a log, which keeps a node's contract state and
// transaction index on disk with a bounded part in memory.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Errors returned by this package.
var (
	// ErrNotFound indicates a missing key or log index.
	ErrNotFound = errors.New("store: not found")
	// ErrCorrupt indicates a log record whose checksum does not match.
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrClosed indicates an operation on a closed store.
	ErrClosed = errors.New("store: closed")
)

// Log is an append-only sequence of opaque records (serialized blocks).
type Log interface {
	// Append adds a record and returns its index.
	Append(rec []byte) (uint64, error)
	// Get returns the record at index i.
	Get(i uint64) ([]byte, error)
	// Len returns the number of records.
	Len() uint64
	// Close releases resources.
	Close() error
}

// KV is a string-keyed byte store with snapshot support. It backs contract
// state; keys are namespaced by contract name at a higher layer.
type KV interface {
	Get(key string) ([]byte, error)
	Put(key string, val []byte) error
	Delete(key string) error
	// Keys returns all keys with the given prefix, sorted.
	Keys(prefix string) ([]string, error)
	// Snapshot returns a deep copy of the current contents.
	Snapshot() (map[string][]byte, error)
	Close() error
}

// DirtyEntry is one key's current state as handed over by a change feed
// (LSM.DrainDirty). Val aliases the stored bytes — stored values are
// replaced, never written in place — and must not be modified.
type DirtyEntry struct {
	Key  string
	Val  []byte
	Live bool // false: the key was deleted
}

// SegmentLog is the log an LSM keeps its segments in: a FileLog on a
// durable node, a MemLog otherwise.
type SegmentLog interface {
	AppendUnsynced(rec []byte) (uint64, error)
	// AppendStream numbers a record of n bytes at once and returns the
	// writer its payload goes through, so a record too large to build in
	// memory can be written while other records are appended after it.
	AppendStream(n int64) (uint64, RecordWriter, error)
	ReadAt(i uint64, off int64, buf []byte) (int, error)
	RecordLen(i uint64) (int, error)
	Len() uint64
	// Size is the log's length in bytes, dead records included.
	Size() int64
	Truncate(n uint64) error
	// Drop says record i is dead: a MemLog frees it, a FileLog keeps its
	// bytes until Rewrite.
	Drop(i uint64)
	// Rewrite keeps only the records keep names, in that order, numbered
	// from 0.
	Rewrite(keep []uint64) error
	Sync() error
}

// RecordWriter writes the payload of a record numbered by AppendStream,
// front to back. The record must not be read before Close returns nil.
type RecordWriter interface {
	io.Writer
	Close() error
}

// ---------------------------------------------------------------------------
// In-memory implementations.
// ---------------------------------------------------------------------------

// MemLog is an in-memory Log safe for concurrent use.
type MemLog struct {
	mu   sync.RWMutex
	recs [][]byte
}

var _ Log = (*MemLog)(nil)

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log.
func (l *MemLog) Append(rec []byte) (uint64, error) {
	cp := make([]byte, len(rec))
	copy(cp, rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, cp)
	return uint64(len(l.recs) - 1), nil
}

// Get implements Log.
func (l *MemLog) Get(i uint64) ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i >= uint64(len(l.recs)) {
		return nil, fmt.Errorf("%w: log index %d", ErrNotFound, i)
	}
	out := make([]byte, len(l.recs[i]))
	copy(out, l.recs[i])
	return out, nil
}

// Len implements Log.
func (l *MemLog) Len() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return uint64(len(l.recs))
}

// Close implements Log.
func (l *MemLog) Close() error { return nil }

// AppendUnsynced is Append: memory has nothing to sync. It is here so a
// MemLog can stand in wherever a FileLog is appended to without fsync.
func (l *MemLog) AppendUnsynced(rec []byte) (uint64, error) { return l.Append(rec) }

// Sync does nothing.
func (l *MemLog) Sync() error { return nil }

// ReadAt implements the FileLog method of the same name.
func (l *MemLog) ReadAt(i uint64, off int64, buf []byte) (int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i >= uint64(len(l.recs)) {
		return 0, fmt.Errorf("%w: log index %d", ErrNotFound, i)
	}
	return readRecordAt(l.recs[i], off, buf)
}

// RecordLen returns the length of record i.
func (l *MemLog) RecordLen(i uint64) (int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i >= uint64(len(l.recs)) {
		return 0, fmt.Errorf("%w: log index %d", ErrNotFound, i)
	}
	return len(l.recs[i]), nil
}

// Truncate drops every record from index n on.
func (l *MemLog) Truncate(n uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < uint64(len(l.recs)) {
		clear(l.recs[n:])
		l.recs = l.recs[:n]
	}
	return nil
}

// Size returns the bytes the log's records hold.
func (l *MemLog) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var n int64
	for _, r := range l.recs {
		n += int64(len(r))
	}
	return n
}

// AppendStream implements SegmentLog: the record is allocated whole and
// filled through the writer.
func (l *MemLog) AppendStream(n int64) (uint64, RecordWriter, error) {
	rec := make([]byte, 0, n)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, rec[:n])
	return uint64(len(l.recs) - 1), &memRecordWriter{rec: rec}, nil
}

// memRecordWriter fills a MemLog record allocated by AppendStream.
type memRecordWriter struct{ rec []byte }

func (w *memRecordWriter) Write(p []byte) (int, error) {
	if len(w.rec)+len(p) > cap(w.rec) {
		return 0, fmt.Errorf("store: stream record: %d bytes past its %d", len(w.rec)+len(p), cap(w.rec))
	}
	w.rec = append(w.rec, p...)
	return len(p), nil
}

func (w *memRecordWriter) Close() error {
	if len(w.rec) != cap(w.rec) {
		return fmt.Errorf("store: stream record: %d of %d bytes written", len(w.rec), cap(w.rec))
	}
	return nil
}

// Drop frees record i; reading it afterwards finds an empty record.
func (l *MemLog) Drop(i uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < uint64(len(l.recs)) {
		l.recs[i] = nil
	}
}

// Rewrite keeps the records keep names, in that order.
func (l *MemLog) Rewrite(keep []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := make([][]byte, len(keep))
	for j, i := range keep {
		if i >= uint64(len(l.recs)) {
			return fmt.Errorf("%w: log index %d", ErrNotFound, i)
		}
		recs[j] = l.recs[i]
	}
	l.recs = recs
	return nil
}

// readRecordAt copies rec[off:] into buf with io.ReaderAt's contract.
func readRecordAt(rec []byte, off int64, buf []byte) (int, error) {
	if off < 0 || off > int64(len(rec)) {
		return 0, fmt.Errorf("store: read at %d of a %d-byte record", off, len(rec))
	}
	n := copy(buf, rec[off:])
	if n < len(buf) {
		return n, io.EOF
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// File-backed log with CRC framing.
// ---------------------------------------------------------------------------

// logFile is the file abstraction FileLog runs on. *os.File implements
// it; tests substitute fault-injecting wrappers to exercise short
// writes, fsync failures and torn frames without touching a real dying
// disk (see faultlog_test.go).
type logFile interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FileLog is an append-only log persisted to a single file. Each record is
// framed as [len uint32][crc32 uint32][payload]. On open, the file is
// replayed; a torn final record is truncated, while a corrupt interior
// record fails open with ErrCorrupt (tamper evidence).
type FileLog struct {
	mu      sync.RWMutex
	path    string // "" for a file handed in by a test
	f       logFile
	w       *bufio.Writer
	offsets []int64 // byte offset of each record frame
	sizes   []uint32
	end     int64 // where the next frame goes
	closed  bool
	// fsyncSec times every fsync of the file (nil without Instrument).
	fsyncSec *telemetry.Histogram
}

var _ Log = (*FileLog)(nil)

// damagePolicy says what replay does with a record that fails its checksum.
type damagePolicy int

const (
	// failOnDamage fails the open: the records cannot be computed again.
	failOnDamage damagePolicy = iota
	// cutAtDamage ends the log at the damaged record.
	cutAtDamage
	// skipDamage drops the damaged frame and goes on at the next sound one.
	skipDamage
)

// OpenFileLog opens or creates a file log at path and replays it.
func OpenFileLog(path string) (*FileLog, error) { return openFileLog(path, failOnDamage) }

// OpenFileLogTruncating is OpenFileLog for a log whose records the caller
// can compute again: a record that fails its checksum is then not worth
// refusing to start over, so the log is cut there — the bad record and
// everything after it are dropped, like a torn tail — and the caller
// refills it from Len() on. An empty record ends the log the same way:
// unsynced appends can leave a tail the file system filled with zeros
// after a machine crash, and eight zero bytes are a well-formed empty
// record (the CRC of nothing is 0). Such a log's records are never empty.
func OpenFileLogTruncating(path string) (*FileLog, error) { return openFileLog(path, cutAtDamage) }

// OpenFileLogSkipping is OpenFileLog for a log of independent records that
// cannot be computed again, so one damaged record must not cost the others:
// a frame that fails its checksum, is empty or runs past the file is left
// out of the numbering — its bytes stay in the file — and replay goes on at
// the first offset after it where a sound frame starts, so a damaged length
// field too costs only its own record. Only when no sound frame follows is
// the damage a torn or zero-filled tail, cut as in OpenFileLogTruncating.
func OpenFileLogSkipping(path string) (*FileLog, error) { return openFileLog(path, skipDamage) }

func openFileLog(path string, policy damagePolicy) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	l, err := newFileLogOn(f, policy)
	if err != nil {
		return nil, err
	}
	l.path = path
	return l, nil
}

// newFileLogOn replays an already-open file into a FileLog. Production
// callers go through OpenFileLog; fault-injection tests hand in wrapped
// files. The file is closed on replay failure.
func newFileLogOn(f logFile, policy damagePolicy) (*FileLog, error) {
	l := &FileLog{f: f}
	if err := l.replay(policy); err != nil {
		f.Close()
		return nil, err
	}
	l.w = bufio.NewWriter(f)
	return l, nil
}

// replay indexes the records on disk. A torn final record is truncated; a
// record that fails its checksum is handled by policy, and outside
// failOnDamage an empty record is damaged too.
func (l *FileLog) replay(policy damagePolicy) error {
	end, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: seek: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek: %w", err)
	}
	r := bufio.NewReader(l.f)
	var off int64
	var hdr [8]byte
	var scratch []byte // nextFrame's, allocated at the first damaged frame
	crcBuf := make([]byte, 32<<10)
	for {
		_, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			// Torn header from a crash mid-write: truncate.
			return l.truncateAt(off)
		}
		if err != nil {
			return fmt.Errorf("store: replay header: %w", err)
		}
		size := binary.BigEndian.Uint32(hdr[0:4])
		want := binary.BigEndian.Uint32(hdr[4:8])
		// A frame that runs past the file is torn, and not worth allocating.
		inFile := off+8+int64(size) <= end
		sound := false
		if inFile && (size > 0 || policy == failOnDamage) {
			// The payload is checksummed a piece at a time: a record may be
			// far larger than anything worth holding in memory at once.
			var crc uint32
			for left := int(size); left > 0; {
				piece := crcBuf[:min(left, len(crcBuf))]
				if _, err := io.ReadFull(r, piece); err != nil {
					if err == io.EOF || err == io.ErrUnexpectedEOF {
						return l.truncateAt(off)
					}
					return fmt.Errorf("store: replay payload: %w", err)
				}
				crc = crc32.Update(crc, crc32.IEEETable, piece)
				left -= len(piece)
			}
			sound = crc == want
		}
		if !sound {
			switch {
			case policy == failOnDamage && inFile:
				return fmt.Errorf("%w: record %d", ErrCorrupt, len(l.offsets))
			case policy == skipDamage:
				if scratch == nil {
					scratch = make([]byte, 2*min(16<<10, end))
				}
				next, err := l.nextFrame(off, end, scratch)
				if err != nil {
					return err
				}
				if next >= 0 {
					if _, err := l.f.Seek(next, io.SeekStart); err != nil {
						return fmt.Errorf("store: seek: %w", err)
					}
					r.Reset(l.f)
					off = next
					continue
				}
			}
			return l.truncateAt(off)
		}
		l.offsets = append(l.offsets, off)
		l.sizes = append(l.sizes, size)
		off += 8 + int64(size)
	}
	// Position write cursor at logical end.
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek end: %w", err)
	}
	l.end = off
	return nil
}

// nextFrame returns the first offset after the damaged frame at off at
// which a sound frame — non-empty, inside the file, passing its checksum —
// starts, or -1 when none does. The damaged frame's length field is not
// trusted: a damaged one may point into the middle of a record or past
// whole ones. Each offset whose length field fits the file costs a
// checksum over that length; in article text and hashes few do. scratch
// holds the window of file bytes scanned and the payload being checksummed.
func (l *FileLog) nextFrame(off int64, end int64, scratch []byte) (int64, error) {
	win, buf := scratch[:len(scratch)/2], scratch[len(scratch)/2:]
	var winOff int64
	var n int
	for p := off + 1; p+8 < end; p++ {
		if p+8 > winOff+int64(n) {
			var err error
			if n, err = l.f.ReadAt(win, p); err != nil && err != io.EOF {
				return -1, fmt.Errorf("store: replay scan: %w", err)
			}
			winOff = p
		}
		if ok, err := l.soundFrame(p, win[p-winOff:], end, buf); err != nil || ok {
			return p, err
		}
	}
	return -1, nil
}

// soundFrame reports whether the frame at off, whose header is hdr[:8], is
// non-empty, ends inside the file and passes its checksum, reading the
// payload through buf.
func (l *FileLog) soundFrame(off int64, hdr []byte, end int64, buf []byte) (bool, error) {
	size := int64(binary.BigEndian.Uint32(hdr[0:4]))
	if size == 0 || off+8+size > end {
		return false, nil
	}
	var crc uint32
	for at := off + 8; at < off+8+size; {
		b := buf[:min(int64(len(buf)), off+8+size-at)]
		if _, err := l.f.ReadAt(b, at); err != nil {
			return false, fmt.Errorf("store: replay scan: %w", err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		at += int64(len(b))
	}
	return crc == binary.BigEndian.Uint32(hdr[4:8]), nil
}

func (l *FileLog) truncateAt(off int64) error {
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncate torn tail: %w", err)
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek after truncate: %w", err)
	}
	l.end = off
	return nil
}

// Append implements Log. The record is durable once Append returns (the
// frame is flushed and fsynced).
func (l *FileLog) Append(rec []byte) (uint64, error) { return l.append(rec, true) }

// AppendUnsynced appends a record without waiting for the disk: the frame
// is handed to the operating system, so Get sees it and it survives the
// process, but a machine crash may lose it (and any unsynced records
// before it) until Sync returns. For records that can be computed again.
func (l *FileLog) AppendUnsynced(rec []byte) (uint64, error) { return l.append(rec, false) }

// Sync makes every record appended so far durable.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Every append flushed its frame already; only the fsync is owed.
	if err := l.sync(l.f); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Instrument times every fsync of the log into
// trustnews_store_fsync_seconds under the label log.
func (l *FileLog) Instrument(reg *telemetry.Registry, log string) {
	h := reg.HistogramVec("trustnews_store_fsync_seconds", "Wall time of one fsync of a file log, by log.", nil, "log").With(log)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fsyncSec = h
}

// sync fsyncs f, the log's file or its rewrite, timed into the fsync
// series. Caller holds l.mu.
func (l *FileLog) sync(f logFile) error {
	if l.fsyncSec == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	l.fsyncSec.Observe(time.Since(start).Seconds())
	return err
}

func (l *FileLog) append(rec []byte, sync bool) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(rec))
	off := l.end
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, l.appendFailed("append header", err, off)
	}
	if _, err := l.w.Write(rec); err != nil {
		return 0, l.appendFailed("append payload", err, off)
	}
	if err := l.w.Flush(); err != nil {
		return 0, l.appendFailed("flush", err, off)
	}
	if sync {
		if err := l.sync(l.f); err != nil {
			return 0, l.appendFailed("sync", err, off)
		}
	}
	l.offsets = append(l.offsets, off)
	l.sizes = append(l.sizes, uint32(len(rec)))
	l.end = off + 8 + int64(len(rec))
	return uint64(len(l.offsets) - 1), nil
}

// appendFailed recovers from a mid-append I/O failure: buffered bytes
// are discarded and the file rolls back to the end of the last complete
// record, so a partial frame never survives to corrupt the log and the
// next Append retries cleanly. If the rollback itself fails (the disk is
// truly gone), the torn frame is left behind for replay to truncate on
// the next open — the same recovery as a crash mid-write.
func (l *FileLog) appendFailed(stage string, cause error, off int64) error {
	l.w.Reset(l.f)
	if err := l.f.Truncate(off); err == nil {
		_, _ = l.f.Seek(off, io.SeekStart)
	}
	return fmt.Errorf("store: %s: %w", stage, cause)
}

// Get implements Log.
func (l *FileLog) Get(i uint64) ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return nil, ErrClosed
	}
	if i >= uint64(len(l.offsets)) {
		return nil, fmt.Errorf("%w: log index %d", ErrNotFound, i)
	}
	buf := make([]byte, l.sizes[i])
	if _, err := l.f.ReadAt(buf, l.offsets[i]+8); err != nil {
		return nil, fmt.Errorf("store: read record %d: %w", i, err)
	}
	return buf, nil
}

// ReadAt reads len(buf) bytes of record i from byte off of its payload with
// one pread, so a caller can fetch a piece of a large record without
// reading the rest. Like io.ReaderAt it returns io.EOF, and the bytes it
// did read, when the record ends first. The bytes are not checked against
// the record's checksum: replay checked them at open.
func (l *FileLog) ReadAt(i uint64, off int64, buf []byte) (int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return 0, ErrClosed
	}
	if i >= uint64(len(l.offsets)) {
		return 0, fmt.Errorf("%w: log index %d", ErrNotFound, i)
	}
	size := int64(l.sizes[i])
	if off < 0 || off > size {
		return 0, fmt.Errorf("store: read at %d of %d-byte record %d", off, size, i)
	}
	want := buf
	if rest := size - off; int64(len(want)) > rest {
		want = want[:rest]
	}
	n, err := l.f.ReadAt(want, l.offsets[i]+8+off)
	if err != nil {
		return n, fmt.Errorf("store: read record %d: %w", i, err)
	}
	if n < len(buf) {
		return n, io.EOF
	}
	return n, nil
}

// RecordLen returns the length of record i.
func (l *FileLog) RecordLen(i uint64) (int, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i >= uint64(len(l.offsets)) {
		return 0, fmt.Errorf("%w: log index %d", ErrNotFound, i)
	}
	return int(l.sizes[i]), nil
}

// Truncate drops every record from index n on, from the file as well.
func (l *FileLog) Truncate(n uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if n >= uint64(len(l.offsets)) {
		return nil
	}
	if err := l.truncateAt(l.offsets[n]); err != nil {
		return err
	}
	l.offsets, l.sizes = l.offsets[:n], l.sizes[:n]
	return nil
}

// Size returns the file's length: every frame, dead records included.
func (l *FileLog) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.end
}

// AppendStream numbers a record of n bytes and moves the end of the log
// past it, so appends after it land behind its bytes; the caller writes the
// payload through the returned writer, front to back, without holding the
// log. Close writes the frame header last, so a record whose writer fails
// or never closes is damage the next open deals with by its policy. Like
// AppendUnsynced, nothing is synced.
func (l *FileLog) AppendStream(n int64) (uint64, RecordWriter, error) {
	if n < 0 || n > math.MaxUint32 {
		return 0, nil, fmt.Errorf("store: stream record of %d bytes", n)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, nil, ErrClosed
	}
	off := l.end
	if _, err := l.f.Seek(off+8+n, io.SeekStart); err != nil {
		return 0, nil, fmt.Errorf("store: stream record: %w", err)
	}
	l.end = off + 8 + n
	l.offsets = append(l.offsets, off)
	l.sizes = append(l.sizes, uint32(n))
	return uint64(len(l.offsets) - 1), &fileRecordWriter{l: l, off: off, n: n, buf: make([]byte, 0, 64<<10)}, nil
}

// fileRecordWriter fills a frame numbered by AppendStream with pwrites.
type fileRecordWriter struct {
	l            *FileLog
	off, n, done int64 // frame offset, payload length, bytes written out
	crc          uint32
	buf          []byte
}

func (w *fileRecordWriter) Write(p []byte) (int, error) {
	if w.done+int64(len(w.buf)+len(p)) > w.n {
		return 0, fmt.Errorf("store: stream record: %d bytes past its %d", w.done+int64(len(w.buf)+len(p)), w.n)
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	for n := len(p); ; {
		k := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf, p = w.buf[:len(w.buf)+k], p[k:]
		if len(p) == 0 {
			return n, nil
		}
		if err := w.flush(); err != nil {
			return 0, err
		}
	}
}

func (w *fileRecordWriter) flush() error {
	if err := w.writeAt(w.buf, w.off+8+w.done); err != nil {
		return err
	}
	w.done += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

func (w *fileRecordWriter) writeAt(p []byte, at int64) error {
	w.l.mu.RLock()
	defer w.l.mu.RUnlock()
	if w.l.closed {
		return ErrClosed
	}
	if _, err := w.l.f.WriteAt(p, at); err != nil {
		return fmt.Errorf("store: stream record: %w", err)
	}
	return nil
}

func (w *fileRecordWriter) Close() error {
	if err := w.flush(); err != nil {
		return err
	}
	if w.done != w.n {
		return fmt.Errorf("store: stream record: %d of %d bytes written", w.done, w.n)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(w.n))
	binary.BigEndian.PutUint32(hdr[4:8], w.crc)
	return w.writeAt(hdr[:], w.off)
}

// Drop does nothing: a dead record's bytes stay in the file until Rewrite.
func (l *FileLog) Drop(uint64) {}

// Rewrite replaces the file with one holding only the records keep names,
// in that order, numbered from 0: it writes them to path.gc, syncs it and
// renames it over the log's file, so a crash leaves one file or the other
// whole. Readers wait meanwhile.
func (l *FileLog) Rewrite(keep []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.path == "" {
		return errors.New("store: rewrite: the log has no path")
	}
	tmp := l.path + ".gc"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: rewrite: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: rewrite: %w", err)
	}
	offsets, sizes := make([]int64, 0, len(keep)), make([]uint32, 0, len(keep))
	buf := make([]byte, 64<<10)
	var end int64
	for _, i := range keep {
		if i >= uint64(len(l.offsets)) {
			return fail(fmt.Errorf("%w: log index %d", ErrNotFound, i))
		}
		// The frame is copied as it is, header and checksum included.
		frame := 8 + int64(l.sizes[i])
		for at := int64(0); at < frame; {
			piece := buf[:min(int64(len(buf)), frame-at)]
			if _, err := l.f.ReadAt(piece, l.offsets[i]+at); err != nil {
				return fail(err)
			}
			if _, err := f.Write(piece); err != nil {
				return fail(err)
			}
			at += int64(len(piece))
		}
		offsets, sizes = append(offsets, end), append(sizes, l.sizes[i])
		end += frame
	}
	if err := l.sync(f); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fail(err)
	}
	old := l.f
	l.f, l.offsets, l.sizes, l.end = f, offsets, sizes, end
	l.w.Reset(f)
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: rewrite: close the old file: %w", err)
	}
	return nil
}

// Len implements Log.
func (l *FileLog) Len() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return uint64(len(l.offsets))
}

// Close implements Log.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("store: close flush: %w", err)
	}
	return l.f.Close()
}
