package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// LSM is a key-value store whose contents live in sorted segments on a
// log, with only the newest writes and a little per page in memory. It
// holds a validator's contract state (state.log) and the chain's
// transaction index (txindex.log).
//
//   - Writes go to the memtable. At a block boundary the owner calls
//     SealIfDue, and once the memtable has passed its configured size it
//     becomes one sorted segment (segment.go), appended to the log.
//   - Get checks the memtable, then the segments from the newest to the
//     oldest — a bloom filter in memory first, then one pread of the one
//     page that can hold the key. Keys and Scan walk each segment from the
//     page where the prefix starts.
//   - Merges keep the number of segments logarithmic in the entries. Every
//     segment has a level: a seal makes level 0, and once mergeFanout
//     adjacent segments share a level they are merged into one of the next
//     level, streamed page by page into a new record. A merge runs on its
//     own goroutine over segments nobody changes; the store's lock is held
//     only to swap the merged segment in. The inputs' records are dead from
//     then on: a MemLog frees them, a FileLog keeps the bytes until Reclaim
//     rewrites the file.
//   - Manifest names the live segments (record, heights, checksum) and
//     carries the memtable, which is what a checkpoint needs to bring the
//     store back with RestoreManifest; Recover instead rebuilds the segment
//     list from the log alone, by the heights the segments cover.
//
// An LSM is safe for concurrent use.
type LSM struct {
	log SegmentLog
	cfg LSMConfig

	mu       sync.RWMutex
	mem      map[string][]byte // nil value: a tombstone
	memBytes int
	memFrom  uint64     // the first height whose writes the memtable holds
	segs     []*segment // oldest first
	sealed   int        // entries in segs
	// pinned are the segments the last manifest named. Their records
	// outlive a merge until the next manifest, so the checkpoint on disk
	// can be opened until a newer one replaces it.
	pinned []*segment
	// dirty holds the keys put or deleted since the last DrainDirty with
	// their stored values; allDirty replaces it once it covers half the
	// store, after a restore and after StopTracking.
	dirty    map[string][]byte
	allDirty bool

	merging  bool
	loopDone chan struct{} // closed when the running merge loop returns
	held     int           // merges are paused while > 0
	closed   bool
	merges   int
	tm       lsmMetrics
}

// LSMConfig sizes an LSM's memtable: SealIfDue seals it once it holds
// SealEntries entries or SealBytes bytes of keys and values, whichever
// comes first (zero: no such bound).
type LSMConfig struct {
	SealEntries int
	SealBytes   int
}

// mergeFanout is how many adjacent segments of one level a merge takes.
const mergeFanout = 4

// mergeHook, when set, runs after a merge has written its segment and
// before it is swapped in (tests hold a merge in flight with it).
var mergeHook func()

// loopHook, when set, runs as a merge loop starts, before it takes the
// lock (tests close the store at that point with it).
var loopHook func()

// lsmMetrics are an LSM's instruments (nil without Instrument).
type lsmMetrics struct {
	segments *telemetry.Gauge
	merges   *telemetry.Counter
	mergeSec *telemetry.Histogram
}

// LSMStats describes an LSM.
type LSMStats struct {
	// Memory is the number of entries in the memtable.
	Memory int
	// Sealed is the number of entries in segments, including tombstones and
	// entries a newer segment overrides.
	Sealed int
	// Segments is the number of live segments.
	Segments int
	// LogBytes is the log's size, dead records included.
	LogBytes int64
	// Merges counts the merges done since the store was made.
	Merges int
}

// NewLSM returns an empty store over log. Whatever log already holds is
// not read: RestoreManifest or Recover does that, and Import drops it.
func NewLSM(log SegmentLog, cfg LSMConfig) *LSM {
	return &LSM{log: log, cfg: cfg, mem: make(map[string][]byte)}
}

var _ KV = (*LSM)(nil)

// Instrument registers the store's series on reg under the label log.
func (s *LSM) Instrument(reg *telemetry.Registry, log string) {
	m := lsmMetrics{
		segments: reg.GaugeVec("trustnews_store_segments", "Live sorted segments of an LSM store, by log.", "log").With(log),
		merges:   reg.CounterVec("trustnews_store_segment_merges_total", "Segment merges an LSM store has done, by log.", "log").With(log),
		mergeSec: reg.HistogramVec("trustnews_store_segment_merge_seconds", "Wall time of one segment merge, off the commit path, by log.", nil, "log").With(log),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tm = m
	s.tm.segments.Set(float64(len(s.segs)))
}

func notFound(key string) error { return fmt.Errorf("%w: key %q", ErrNotFound, key) }

// Get implements KV.
func (s *LSM) Get(key string) ([]byte, error) {
	v, ok, err := s.Lookup(key)
	if err == nil && !ok {
		err = notFound(key)
	}
	return v, err
}

// Lookup is Get that reports a missing key as ok == false rather than an
// error; err is a failure to read.
func (s *LSM) Lookup(key string) (val []byte, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, ok := s.mem[key]; ok {
		return bytes.Clone(v), v != nil, nil
	}
	h1, h2 := keyHash(key)
	for i := len(s.segs) - 1; i >= 0; i-- {
		v, found, tomb, err := s.segs[i].get(s.log, key, h1, h2)
		if err != nil || found {
			return v, found && !tomb, err
		}
	}
	return nil, false, nil
}

// Put implements KV.
func (s *LSM) Put(key string, val []byte) error {
	// A non-nil copy even of an empty value: nil marks a tombstone.
	cp := make([]byte, len(val))
	copy(cp, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setLocked(key, cp)
	return nil
}

// Delete implements KV. It writes a tombstone whether or not the key
// exists: finding out would cost a read.
func (s *LSM) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setLocked(key, nil)
	return nil
}

func (s *LSM) setLocked(key string, v []byte) {
	if old, ok := s.mem[key]; ok {
		s.memBytes -= len(key) + len(old)
	}
	s.mem[key] = v
	s.memBytes += len(key) + len(v)
	if s.allDirty {
		return
	}
	if s.dirty == nil {
		s.dirty = make(map[string][]byte)
	}
	s.dirty[key] = v
	// Rebuilding from a full scan costs about what folding in changes to
	// half the keys would; the sealed count includes overridden entries, so
	// this gives up a little later than an exact count would.
	if 2*len(s.dirty) > len(s.mem)+s.sealed {
		s.dirty, s.allDirty = nil, true
	}
}

// DrainDirty returns the keys changed since the previous call with their
// current values, in no particular order, and forgets them. all reports
// that change tracking was given up meanwhile — the changes covered half
// the store, it was restored or reset, or StopTracking was called — so the
// caller must rebuild what it derives from a full Scan; entries is then
// nil. Tracking starts again with this call.
func (s *LSM) DrainDirty() (entries []DirtyEntry, all bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all = s.allDirty
	if !all {
		entries = make([]DirtyEntry, 0, len(s.dirty))
		for k, v := range s.dirty {
			entries = append(entries, DirtyEntry{Key: k, Val: v, Live: v != nil})
		}
	}
	// Not clear(): a map that once held a large write set keeps its
	// buckets, and clearing them would cost every later drain O(that).
	s.dirty, s.allDirty = nil, false
	return entries, all
}

// StopTracking drops the change feed until the next DrainDirty, which
// then reports all: for an owner that will rebuild from a scan anyway.
func (s *LSM) StopTracking() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirty, s.allDirty = nil, true
}

// Keys implements KV.
func (s *LSM) Keys(prefix string) ([]string, error) {
	var out []string
	err := s.scan(prefix, prefix, func(key, _ []byte) bool {
		out = append(out, string(key))
		return true
	})
	return out, err
}

// scanBatch is how many entries Scan copies out under the lock at a time.
const scanBatch = 1024

// Scan calls fn for every live key with the given prefix, in key order,
// with a copy of its value. The store is not locked while fn runs: entries
// are copied out a batch at a time, so a write made during the scan may or
// may not be seen. An error from fn stops the scan and is returned.
func (s *LSM) Scan(prefix string, fn func(key string, val []byte) error) error {
	type entry struct {
		key string
		val []byte
	}
	batch := make([]entry, 0, scanBatch)
	for from := prefix; ; {
		batch = batch[:0]
		err := s.scan(prefix, from, func(key, val []byte) bool {
			batch = append(batch, entry{string(key), bytes.Clone(val)})
			return len(batch) < scanBatch
		})
		if err != nil {
			return err
		}
		for _, e := range batch {
			if err := fn(e.key, e.val); err != nil {
				return err
			}
		}
		if len(batch) < scanBatch {
			return nil
		}
		from = batch[len(batch)-1].key + "\x00" // the next key after it
	}
}

// scan calls fn under the read lock for every live key with the prefix
// from the first not below from on, until fn returns false.
func (s *LSM) scan(prefix, from string, fn func(key, val []byte) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.iterLocked(prefix, from)
	for m.next() {
		if len(m.key) < len(prefix) || string(m.key[:len(prefix)]) != prefix {
			break
		}
		if !m.tomb && !fn(m.key, m.val) {
			break
		}
	}
	return m.err
}

// iterLocked merges the memtable's keys with the prefix and every segment,
// from the first key not below from on. Caller holds s.mu.
func (s *LSM) iterLocked(prefix, from string) *mergeIter {
	mem := &memIter{i: -1}
	for k := range s.mem {
		if strings.HasPrefix(k, prefix) && k >= from {
			mem.keys = append(mem.keys, k)
		}
	}
	sort.Strings(mem.keys)
	mem.vals = make([][]byte, len(mem.keys))
	for i, k := range mem.keys {
		mem.vals[i] = s.mem[k]
	}
	srcs := []source{mem}
	for i := len(s.segs) - 1; i >= 0; i-- {
		it := &segIter{s: s.segs[i], log: s.log}
		it.seek(from)
		srcs = append(srcs, it)
	}
	return newMergeIter(srcs)
}

// Snapshot implements KV: every live key with a copy of its value.
func (s *LSM) Snapshot() (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := s.scan("", "", func(key, val []byte) bool {
		out[string(key)] = bytes.Clone(val)
		return true
	})
	return out, err
}

// Close implements KV: it waits for a merge in flight and starts no more.
// The log stays open; its owner closes it.
func (s *LSM) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.WaitMerges()
	return nil
}

// Stats reports the store's size.
func (s *LSM) Stats() LSMStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return LSMStats{Memory: len(s.mem), Sealed: s.sealed, Segments: len(s.segs), LogBytes: s.log.Size(), Merges: s.merges}
}

// Due reports whether the memtable has reached its seal size.
func (s *LSM) Due() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dueLocked()
}

func (s *LSM) dueLocked() bool {
	n := len(s.mem)
	return n > 0 && (s.cfg.SealEntries > 0 && n >= s.cfg.SealEntries || s.cfg.SealBytes > 0 && s.memBytes >= s.cfg.SealBytes)
}

// SealIfDue seals the memtable once it has reached its seal size, as a
// segment holding the writes of heights from the end of the last seal up
// to to, carrying meta; otherwise it does nothing. The segment is appended
// without fsync (see Manifest). On error the memtable stays as it was.
func (s *LSM) SealIfDue(to uint64, meta []byte) error {
	s.mu.Lock()
	if !s.dueLocked() {
		s.mu.Unlock()
		return nil
	}
	err := s.sealLocked(to, meta)
	s.mu.Unlock()
	if err == nil {
		s.maybeMerge()
	}
	return err
}

func (s *LSM) sealLocked(to uint64, meta []byte) error {
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Nothing older than the first segment can hold a key its tombstone
	// would hide.
	dropTombs := len(s.segs) == 0
	var buf bytes.Buffer
	buf.Grow(s.memBytes + 4*len(keys) + bloomBytes(len(keys)) + segmentTrailerBytes)
	sw := newSegmentWriter(&buf, len(keys))
	var kb []byte
	for _, k := range keys {
		v := s.mem[k]
		if v == nil && dropTombs {
			continue
		}
		kb = append(kb[:0], k...)
		if err := sw.add(kb, v, v == nil); err != nil {
			return err
		}
	}
	if _, err := sw.finish(0, s.memFrom, to, meta); err != nil {
		return err
	}
	rec, err := s.log.AppendUnsynced(buf.Bytes())
	if err != nil {
		return fmt.Errorf("store: seal: %w", err)
	}
	seg, err := loadSegment(s.log, rec)
	if err != nil {
		return fmt.Errorf("store: seal: %w", err)
	}
	s.segs = append(s.segs, seg)
	s.sealed += seg.entries
	s.mem, s.memBytes, s.memFrom = make(map[string][]byte), 0, to+1
	s.tm.segments.Set(float64(len(s.segs)))
	return nil
}

// ---------------------------------------------------------------------------
// Merges.
// ---------------------------------------------------------------------------

// pickMerge finds mergeFanout adjacent segments of one level, the oldest
// such run of the lowest level.
func pickMerge(segs []*segment) (i, j int, ok bool) {
	best, run := -1, 0
	for k, s := range segs {
		if k > 0 && s.level == segs[k-1].level {
			run++
		} else {
			run = 1
		}
		if run >= mergeFanout && (best < 0 || s.level < segs[best].level) {
			best = k - mergeFanout + 1
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, best + mergeFanout, true
}

// maybeMerge starts the merge loop if a merge is due and none runs.
func (s *LSM) maybeMerge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.merging || s.held > 0 || s.closed {
		return
	}
	if _, _, ok := pickMerge(s.segs); !ok {
		return
	}
	s.merging = true
	s.loopDone = make(chan struct{})
	go s.mergeLoop(s.loopDone)
}

// WaitMerges returns once the merge loop running now, if any, has
// returned: then no merge runs, and none is due unless a seal came after.
func (s *LSM) WaitMerges() {
	s.mu.RLock()
	done := s.loopDone
	s.mu.RUnlock()
	if done != nil {
		<-done
	}
}

// hold pauses merging for work that rewrites the segment list or the log:
// it waits for a merge in flight and starts none until release.
func (s *LSM) hold() {
	s.mu.Lock()
	s.held++
	s.mu.Unlock()
	s.WaitMerges()
}

func (s *LSM) release() {
	s.mu.Lock()
	s.held--
	s.mu.Unlock()
	s.maybeMerge()
}

// mergeLoop merges until no merge is due. A merge that fails is given up;
// the next seal tries again. The merge the loop was started for runs even
// if Close came since, as Close waits for it; only the ones after it stop.
func (s *LSM) mergeLoop(done chan struct{}) {
	defer close(done)
	if loopHook != nil {
		loopHook()
	}
	for first := true; ; first = false {
		s.mu.Lock()
		i, j, ok := pickMerge(s.segs)
		if !ok || s.held > 0 || s.closed && !first {
			s.merging = false
			s.mu.Unlock()
			return
		}
		inputs := slices.Clone(s.segs[i:j])
		s.mu.Unlock()

		start := time.Now()
		out, err := s.merge(inputs, i == 0)
		if err == nil && mergeHook != nil {
			mergeHook()
		}
		s.mu.Lock()
		if err != nil {
			s.merging = false
			s.mu.Unlock()
			return
		}
		// Only seals ran meanwhile, and they append: the inputs are where
		// they were.
		s.segs = slices.Replace(s.segs, i, j, out)
		for _, in := range inputs {
			s.sealed -= in.entries
		}
		s.sealed += out.entries
		s.merges++
		s.tm.segments.Set(float64(len(s.segs)))
		s.tm.merges.Inc()
		s.tm.mergeSec.Observe(time.Since(start).Seconds())
		dead := s.unpinnedLocked(inputs)
		s.mu.Unlock()
		for _, seg := range dead {
			s.log.Drop(seg.rec)
		}
	}
}

// unpinnedLocked returns the segments of segs the last manifest did not
// name. Caller holds s.mu.
func (s *LSM) unpinnedLocked(segs []*segment) []*segment {
	var out []*segment
	for _, seg := range segs {
		if !slices.Contains(s.pinned, seg) {
			out = append(out, seg)
		}
	}
	return out
}

// merge writes inputs, adjacent segments of one level, as one segment of
// the next. A tombstone is dropped when nothing older than the inputs can
// hold the key it hides.
func (s *LSM) merge(inputs []*segment, oldest bool) (*segment, error) {
	hint := 0
	for _, in := range inputs {
		hint += in.entries
	}
	last := inputs[len(inputs)-1]
	return s.writeSegment(inputs[0].level+1, inputs[0].from, last.to, last.meta, hint, func(sw *segmentWriter) error {
		srcs := make([]source, 0, len(inputs))
		for i := len(inputs) - 1; i >= 0; i-- {
			srcs = append(srcs, &segIter{s: inputs[i], log: s.log})
		}
		m := newMergeIter(srcs)
		for m.next() {
			if m.tomb && oldest {
				continue
			}
			if err := sw.add(m.key, m.val, m.tomb); err != nil {
				return err
			}
		}
		return m.err
	})
}

// writeSegment streams the entries feed adds (at most hint of them) into a
// new record: once to learn its length, once into the record.
func (s *LSM) writeSegment(level int, from, to uint64, meta []byte, hint int, feed func(*segmentWriter) error) (*segment, error) {
	count := newSegmentWriter(io.Discard, hint)
	if err := feed(count); err != nil {
		return nil, err
	}
	size, err := count.finish(level, from, to, meta)
	if err != nil {
		return nil, err
	}
	rec, w, err := s.log.AppendStream(size)
	if err != nil {
		return nil, err
	}
	sw := newSegmentWriter(w, hint)
	err = feed(sw)
	if err == nil {
		var got int64
		if got, err = sw.finish(level, from, to, meta); err == nil && got != size {
			err = fmt.Errorf("store: segment of %d bytes, counted %d", got, size)
		}
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.log.Drop(rec)
		return nil, err
	}
	return loadSegment(s.log, rec)
}

// ---------------------------------------------------------------------------
// Opening, checkpoints and reclamation.
// ---------------------------------------------------------------------------

// replaceLocked replaces the store's contents: segs, a memtable from mem
// (nil: empty) whose writes start at memFrom. Change tracking restarts
// from "everything". Caller holds s.mu.
func (s *LSM) replaceLocked(segs []*segment, memFrom uint64, mem map[string][]byte) {
	if mem == nil {
		mem = make(map[string][]byte)
	}
	s.segs, s.sealed, s.pinned = segs, 0, nil
	for _, seg := range segs {
		s.sealed += seg.entries
	}
	s.mem, s.memBytes, s.memFrom = mem, 0, memFrom
	for k, v := range mem {
		s.memBytes += len(k) + len(v)
	}
	s.dirty, s.allDirty = nil, true
	s.tm.segments.Set(float64(len(s.segs)))
}

// Import replaces the store's contents with snap, written as one segment
// of the level its size would have reached through seals and merges; the
// log is cut to that segment (to nothing for an empty snap).
func (s *LSM) Import(snap map[string][]byte) error {
	s.hold()
	defer s.release()
	if err := s.log.Truncate(0); err != nil {
		return err
	}
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var segs []*segment
	if len(keys) > 0 {
		level := 0
		for c := max(1, s.cfg.SealEntries) * mergeFanout; len(keys) >= c; c *= mergeFanout {
			level++
		}
		seg, err := s.writeSegment(level, 0, 0, nil, len(keys), func(sw *segmentWriter) error {
			for _, k := range keys {
				if err := sw.add([]byte(k), snap[k], false); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: import: %w", err)
		}
		segs = []*segment{seg}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replaceLocked(segs, 0, nil)
	return nil
}

// Recover rebuilds the segment list from the log alone, for a store whose
// segments cover consecutive heights from 0: a record that starts where the
// list ends is a seal, one spanning exactly two or more adjacent segments
// of the list is their merge and takes their place. accept vets each
// segment's heights and meta; the log is cut at the first record that is
// neither (or not a segment, or not accepted). It returns the height the
// segments end before, where the memtable starts.
func (s *LSM) Recover(accept func(from, to uint64, meta []byte) bool) (uint64, error) {
	s.hold()
	defer s.release()
	var segs []*segment
	var next uint64
	for k := uint64(0); k < s.log.Len(); k++ {
		seg, err := loadSegment(s.log, k)
		if err == nil && accept(seg.from, seg.to, seg.meta) {
			if seg.from == next {
				segs, next = append(segs, seg), seg.to+1
				continue
			}
			if i, j, ok := spanOf(segs, seg.from, seg.to); ok && j-i >= 2 {
				segs = slices.Replace(segs, i, j, seg)
				continue
			}
		}
		if err := s.log.Truncate(k); err != nil {
			return 0, err
		}
		break
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replaceLocked(segs, next, nil)
	return next, nil
}

// spanOf finds the run segs[i:j] covering exactly heights from..to.
func spanOf(segs []*segment, from, to uint64) (i, j int, ok bool) {
	for i = range segs {
		if segs[i].from == from {
			for j = i; j < len(segs); j++ {
				if segs[j].to == to {
					return i, j + 1, true
				}
			}
		}
	}
	return 0, 0, false
}

// manifestMagic starts every manifest; a checkpoint blob written before
// manifests existed (a gob stream) cannot start with it.
var manifestMagic = []byte("TNLSM\x00\x00\x01")

// Manifest describes the store as it stands — each live segment by record
// number, height range and checksum, then the memtable's entries — and
// makes the log durable, so a checkpoint holding the manifest can bring the
// store back with RestoreManifest. The records it names outlive any merge
// until the next Manifest.
//
//	magic | uvarint memFrom | uvarint segments |
//	segments × (uvarint record | uvarint from | uvarint to | crc u32) |
//	uvarint entries | entries as in a segment's pages, sorted by key
func (s *LSM) Manifest() ([]byte, error) {
	s.mu.Lock()
	b := append([]byte(nil), manifestMagic...)
	b = binary.AppendUvarint(b, s.memFrom)
	b = binary.AppendUvarint(b, uint64(len(s.segs)))
	for _, seg := range s.segs {
		b = binary.AppendUvarint(b, seg.rec)
		b = binary.AppendUvarint(b, seg.from)
		b = binary.AppendUvarint(b, seg.to)
		b = binary.BigEndian.AppendUint32(b, seg.crc)
	}
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendEntry(b, k, s.mem[k], s.mem[k] == nil)
	}
	var dead []*segment
	for _, seg := range s.pinned {
		if !slices.Contains(s.segs, seg) {
			dead = append(dead, seg)
		}
	}
	s.pinned = slices.Clone(s.segs)
	s.mu.Unlock()
	for _, seg := range dead {
		s.log.Drop(seg.rec)
	}
	// Every record named above is complete: a merge's enters the list only
	// once written. Syncing after taking the list covers them all.
	if err := s.log.Sync(); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	return b, nil
}

// RestoreManifest replaces the store's contents with what a manifest
// describes. Each segment must be found with its heights and checksum at
// the record the manifest names or — when a Reclaim renumbered the log
// after the manifest was taken — at another; anything else is an error and
// leaves the store empty. Records after the last one named are dropped
// from the log: they were written after the manifest.
func (s *LSM) RestoreManifest(b []byte) error {
	s.hold()
	defer s.release()
	segs, memFrom, mem, err := s.parseManifest(b)
	if err != nil {
		s.mu.Lock()
		s.replaceLocked(nil, 0, nil)
		s.mu.Unlock()
		return err
	}
	last := uint64(0)
	for _, seg := range segs {
		last = max(last, seg.rec+1)
	}
	if err := s.log.Truncate(last); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replaceLocked(segs, memFrom, mem)
	s.pinned = slices.Clone(segs)
	return nil
}

func (s *LSM) parseManifest(b []byte) (segs []*segment, memFrom uint64, mem map[string][]byte, err error) {
	if !bytes.HasPrefix(b, manifestMagic) {
		return nil, 0, nil, errors.New("store: not a manifest")
	}
	r := b[len(manifestMagic):]
	uvarint := func() uint64 {
		v, n := binary.Uvarint(r)
		if n <= 0 {
			err = errors.New("store: manifest truncated")
			r = nil
			return 0
		}
		r = r[n:]
		return v
	}
	memFrom = uvarint()
	// A segment takes seven bytes at least: the count is checked against
	// what is left before anything is allocated for it.
	n := uvarint()
	if err != nil || n > uint64(len(r)/7) {
		return nil, 0, nil, fmt.Errorf("store: manifest of %d segments in %d bytes", n, len(r))
	}
	for ; n > 0 && err == nil; n-- {
		rec, from, to := uvarint(), uvarint(), uvarint()
		if err != nil || len(r) < 4 {
			return nil, 0, nil, errors.New("store: manifest truncated")
		}
		crc := binary.BigEndian.Uint32(r)
		r = r[4:]
		seg, lerr := s.locate(rec, from, to, crc)
		if lerr != nil {
			return nil, 0, nil, lerr
		}
		segs = append(segs, seg)
	}
	entries := uvarint()
	if err != nil || entries > uint64(len(r)/2) {
		return nil, 0, nil, errors.New("store: manifest memtable truncated")
	}
	mem = make(map[string][]byte, entries)
	var prev []byte
	for i := uint64(0); i < entries; i++ {
		k, v, tomb, rest, derr := decodeEntry(r)
		if derr != nil || (i > 0 && bytes.Compare(k, prev) <= 0) {
			return nil, 0, nil, fmt.Errorf("store: manifest memtable entry %d is malformed", i)
		}
		if !tomb {
			v = bytes.Clone(v) // non-nil even when empty: nil is a tombstone
		}
		mem[string(k)], prev, r = v, k, rest
	}
	if len(r) != 0 {
		return nil, 0, nil, fmt.Errorf("store: %d bytes after the manifest", len(r))
	}
	return segs, memFrom, mem, nil
}

// locate finds the segment with the given heights and checksum, at record
// rec or, failing that, anywhere in the log.
func (s *LSM) locate(rec, from, to uint64, crc uint32) (*segment, error) {
	match := func(k uint64) *segment {
		seg, err := loadSegment(s.log, k)
		if err != nil || seg.from != from || seg.to != to || seg.crc != crc {
			return nil
		}
		return seg
	}
	if seg := match(rec); seg != nil {
		return seg, nil
	}
	for k := uint64(0); k < s.log.Len(); k++ {
		if k == rec {
			continue
		}
		if seg := match(k); seg != nil {
			return seg, nil
		}
	}
	return nil, fmt.Errorf("%w: no segment of heights %d..%d with checksum %08x", ErrNotFound, from, to, crc)
}

// Reclaim rewrites the log without its dead records once they take more
// bytes than the live ones, keeping the records the last manifest named.
// It waits for a merge in flight. It reports whether it rewrote.
func (s *LSM) Reclaim() (bool, error) {
	s.hold()
	defer s.release()
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := slices.Clone(s.segs)
	for _, seg := range s.pinned {
		if !slices.Contains(keep, seg) {
			keep = append(keep, seg)
		}
	}
	var live int64
	for _, seg := range keep {
		live += seg.size
	}
	if s.log.Size()-live <= live {
		return false, nil
	}
	// Log order is kept: Recover depends on a merge following its inputs.
	slices.SortFunc(keep, func(a, b *segment) int { return cmp.Compare(a.rec, b.rec) })
	recs := make([]uint64, len(keep))
	for i, seg := range keep {
		recs[i] = seg.rec
	}
	if err := s.log.Rewrite(recs); err != nil {
		return false, err
	}
	for i, seg := range keep {
		seg.rec = uint64(i)
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// Merged iteration.
// ---------------------------------------------------------------------------

// source is one sorted input of a mergeIter. entry's slices are valid
// until the next call to next.
type source interface {
	next() bool
	entry() (key, val []byte, tomb bool)
	error() error
}

func (it *segIter) entry() ([]byte, []byte, bool) { return it.key, it.val, it.tomb }
func (it *segIter) error() error                  { return it.err }

// memIter walks a sorted copy of the memtable's keys.
type memIter struct {
	keys []string
	vals [][]byte
	i    int
	kb   []byte
}

func (m *memIter) next() bool {
	m.i++
	if m.i >= len(m.keys) {
		return false
	}
	m.kb = append(m.kb[:0], m.keys[m.i]...)
	return true
}

func (m *memIter) entry() ([]byte, []byte, bool) { return m.kb, m.vals[m.i], m.vals[m.i] == nil }
func (m *memIter) error() error                  { return nil }

// mergeIter merges sources ordered newest first into one stream in key
// order: of entries with one key, the newest source's wins. Tombstones are
// passed on for the caller to keep or drop.
type mergeIter struct {
	srcs []source
	ok   []bool // srcs[i] holds a current entry
	adv  []int  // the sources to advance before the next entry
	key  []byte
	val  []byte
	tomb bool
	err  error
}

func newMergeIter(srcs []source) *mergeIter {
	m := &mergeIter{srcs: srcs, ok: make([]bool, len(srcs))}
	for i := range srcs {
		m.adv = append(m.adv, i)
	}
	return m
}

func (m *mergeIter) next() bool {
	for _, i := range m.adv {
		m.ok[i] = m.srcs[i].next()
		if !m.ok[i] {
			if err := m.srcs[i].error(); err != nil {
				m.err = err
				return false
			}
		}
	}
	m.adv = m.adv[:0]
	best := -1
	var bk []byte
	for i, src := range m.srcs {
		if !m.ok[i] {
			continue
		}
		if k, _, _ := src.entry(); best < 0 || bytes.Compare(k, bk) < 0 {
			best, bk = i, k
		}
	}
	if best < 0 {
		return false
	}
	for i, src := range m.srcs {
		if !m.ok[i] {
			continue
		}
		if k, _, _ := src.entry(); bytes.Equal(k, bk) {
			m.adv = append(m.adv, i)
		}
	}
	m.key, m.val, m.tomb = m.srcs[best].entry()
	return true
}
