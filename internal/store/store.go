// Package store provides the persistence substrate for the ledger and the
// platform state: an append-only log for blocks and a versioned key-value
// state store. Both have a pure in-memory implementation and a file-backed
// write-ahead-log implementation built on encoding/gob and CRC framing, so
// a node can recover its chain after restart and tampering with the file is
// detected on replay.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
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

// MemKV is an in-memory KV safe for concurrent use. Beside the data it
// remembers which keys changed since the last DrainDirty, which is what
// lets the contract engine bring its state commitment up to date from a
// block's write set instead of re-hashing the whole state.
type MemKV struct {
	mu   sync.RWMutex
	data map[string][]byte
	// dirty holds the keys put or deleted since the last drain, each with
	// its stored value (nil: deleted). Once it covers more than half the
	// state — or Restore replaces the contents — it is dropped for
	// allDirty, "hand over everything": rebuilding from all keys then
	// costs about what folding in that many changes would, and a store
	// nobody drains (a cluster validator's: consensus blocks carry no
	// state root) stops tracking at its first write and never hashes
	// anything.
	dirty    map[string][]byte
	allDirty bool
}

// DirtyEntry is one key's current state as handed over by DrainDirty.
// Val aliases the stored bytes — stored values are replaced, never
// written in place — and must not be modified.
type DirtyEntry struct {
	Key  string
	Val  []byte
	Live bool // false: the key was deleted
}

var _ KV = (*MemKV)(nil)

// NewMemKV returns an empty in-memory KV store.
func NewMemKV() *MemKV { return &MemKV{data: make(map[string][]byte)} }

// Get implements KV.
func (m *MemKV) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: key %q", ErrNotFound, key)
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Put implements KV.
func (m *MemKV) Put(key string, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[key] = cp
	m.markDirty(key, cp)
	return nil
}

// Delete implements KV.
func (m *MemKV) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[key]; ok {
		delete(m.data, key)
		m.markDirty(key, nil)
	}
	return nil
}

// markDirty records a changed key with its stored value, nil for a
// delete (Put stores a non-nil copy even of an empty value). Caller
// holds m.mu.
func (m *MemKV) markDirty(key string, stored []byte) {
	if m.allDirty {
		return
	}
	if m.dirty == nil {
		m.dirty = make(map[string][]byte)
	}
	m.dirty[key] = stored
	if 2*len(m.dirty) > len(m.data) {
		m.dirty, m.allDirty = nil, true
	}
}

// DrainDirty returns the keys changed since the previous call with their
// current values, in no particular order, and forgets them. all reports
// that change tracking was abandoned meanwhile (see MemKV): the entries
// are then every live key, and whatever the caller derived from earlier
// drains must be rebuilt from them alone.
func (m *MemKV) DrainDirty() (entries []DirtyEntry, all bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	all = m.allDirty
	if all {
		entries = make([]DirtyEntry, 0, len(m.data))
		for k, v := range m.data {
			entries = append(entries, DirtyEntry{Key: k, Val: v, Live: true})
		}
	} else {
		entries = make([]DirtyEntry, 0, len(m.dirty))
		for k, v := range m.dirty {
			entries = append(entries, DirtyEntry{Key: k, Val: v, Live: v != nil})
		}
	}
	// Not clear(): a map that once held a large write set keeps its
	// buckets, and clearing them would cost every later drain O(that).
	m.dirty, m.allDirty = nil, false
	return entries, all
}

// Keys implements KV.
func (m *MemKV) Keys(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for k := range m.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Snapshot implements KV.
func (m *MemKV) Snapshot() (map[string][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string][]byte, len(m.data))
	for k, v := range m.data {
		cp := make([]byte, len(v))
		copy(cp, v)
		out[k] = cp
	}
	return out, nil
}

// Restore replaces the contents with the given snapshot.
func (m *MemKV) Restore(snap map[string][]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirty, m.allDirty = nil, true
	m.data = make(map[string][]byte, len(snap))
	for k, v := range snap {
		cp := make([]byte, len(v))
		copy(cp, v)
		m.data[k] = cp
	}
}

// Close implements KV.
func (m *MemKV) Close() error { return nil }

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
	f       logFile
	w       *bufio.Writer
	offsets []int64 // byte offset of each record frame
	sizes   []uint32
	end     int64 // where the next frame goes
	closed  bool
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
	return newFileLogOn(f, policy)
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
			payload := make([]byte, size)
			if _, err := io.ReadFull(r, payload); err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return l.truncateAt(off)
				}
				return fmt.Errorf("store: replay payload: %w", err)
			}
			sound = crc32.ChecksumIEEE(payload) == want
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
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
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
		if err := l.f.Sync(); err != nil {
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
