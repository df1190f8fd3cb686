package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
)

// A segment is one immutable run of an LSM's entries sorted by key, stored
// as one record of the LSM's log:
//
//	pages    the entries, packed into pages of at most segmentPageBytes (an
//	         entry larger than that gets a page of its own); an entry is
//	         uvarint len(key) | key | uvarint tag | value, where tag 0 marks a
//	         tombstone and tag n+1 a value of n bytes
//	bloom    a bloom filter over the keys, bloomProbes probes per key
//	index    per page: uvarint page length | uvarint len(first key) | first key
//	meta     the owner's opaque bytes
//	trailer  version u8 | level u8 | entries u64 | from u64 | to u64 |
//	         bloom length u32 | index length u32 | meta length u32 |
//	         crc32 (IEEE) of everything before the trailer
//
// Everything a reader needs to find a page comes after the pages, so a
// segment is written front to back as a stream, one page buffered at a
// time. Of a segment only the bloom, the first key of each page and the
// page ends stay in memory; a lookup reads one page with one pread.
// from..to are the heights whose writes the segment holds, level its place
// in the merge policy (lsm.go).

const (
	// segmentVersion is the trailer's first byte. The transaction index's
	// own segment format of before was version 1.
	segmentVersion      = 2
	segmentPageBytes    = 4096
	segmentTrailerBytes = 1 + 1 + 8 + 8 + 8 + 4 + 4 + 4 + 4
	bloomBitsPerKey     = 10
	bloomProbes         = 7
)

// errBadSegment marks a log record that is not a well-formed segment.
var errBadSegment = errors.New("store: malformed segment")

// segment is what stays in memory of one sealed segment.
type segment struct {
	rec      uint64 // record number in the log
	size     int64  // record length
	level    int
	entries  int
	from, to uint64
	crc      uint32
	bloom    []byte
	fences   []byte   // the first key of every page, back to back
	fenceEnd []uint32 // page p's first key ends at fences[fenceEnd[p]]
	pageEnd  []uint32 // page p ends at byte pageEnd[p] of the record
	meta     []byte
}

// fence returns the first key of page p.
func (s *segment) fence(p int) []byte {
	var start uint32
	if p > 0 {
		start = s.fenceEnd[p-1]
	}
	return s.fences[start:s.fenceEnd[p]]
}

// pageFor returns the page that would hold key: the last whose first key is
// not above it, or -1 when key sorts before the segment.
func (s *segment) pageFor(key string) int {
	return sort.Search(len(s.pageEnd), func(p int) bool { return string(s.fence(p)) > key }) - 1
}

// readPage reads page p into buf, growing it when the page is larger.
func (s *segment) readPage(log SegmentLog, p int, buf []byte) ([]byte, error) {
	var start uint32
	if p > 0 {
		start = s.pageEnd[p-1]
	}
	n := int(s.pageEnd[p] - start)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := log.ReadAt(s.rec, int64(start), buf); err != nil {
		return nil, fmt.Errorf("store: read segment %d page %d: %w", s.rec, p, err)
	}
	return buf, nil
}

// pagePool holds page buffers for point reads.
var pagePool = sync.Pool{New: func() any { b := make([]byte, segmentPageBytes); return &b }}

// get looks key up in s: found says the segment holds an entry for it, tomb
// that the entry is a tombstone. val is a copy.
func (s *segment) get(log SegmentLog, key string, h1, h2 uint64) (val []byte, found, tomb bool, err error) {
	if !bloomHas(s.bloom, h1, h2) {
		return nil, false, false, nil
	}
	p := s.pageFor(key)
	if p < 0 {
		return nil, false, false, nil
	}
	bp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bp)
	page, err := s.readPage(log, p, *bp)
	if err != nil {
		return nil, false, false, err
	}
	for len(page) > 0 {
		k, v, t, rest, err := decodeEntry(page)
		if err != nil {
			return nil, false, false, fmt.Errorf("%w: record %d page %d: %v", errBadSegment, s.rec, p, err)
		}
		if string(k) == key {
			if t {
				return nil, true, true, nil
			}
			return bytes.Clone(v), true, false, nil
		}
		if string(k) > key {
			return nil, false, false, nil
		}
		page = rest
	}
	return nil, false, false, nil
}

// appendEntry encodes one entry onto b.
func appendEntry[K string | []byte](b []byte, key K, val []byte, tomb bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	if tomb {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(val))+1)
	return append(b, val...)
}

// entryLen is the encoded length of an entry whose key is keyLen bytes.
func entryLen(keyLen int, val []byte, tomb bool) int {
	n := uvarintLen(uint64(keyLen)) + keyLen
	if tomb {
		return n + 1
	}
	return n + uvarintLen(uint64(len(val))+1) + len(val)
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// decodeEntry splits the first entry off b. key and val alias b.
func decodeEntry(b []byte) (key, val []byte, tomb bool, rest []byte, err error) {
	kl, n := binary.Uvarint(b)
	if n <= 0 || kl > uint64(len(b)-n) {
		return nil, nil, false, nil, errors.New("bad key length")
	}
	key, b = b[n:n+int(kl)], b[n+int(kl):]
	tag, n := binary.Uvarint(b)
	if n <= 0 || tag > uint64(len(b)-n)+1 {
		return nil, nil, false, nil, errors.New("bad value length")
	}
	b = b[n:]
	if tag == 0 {
		return key, nil, true, b, nil
	}
	return key, b[:tag-1], false, b[tag-1:], nil
}

// segmentWriter streams entries, added in strictly increasing key order,
// out as a segment. Sizes depend only on the entries and the bloom's size,
// so the same entries written twice — once to count, once for real — take
// the same bytes.
type segmentWriter struct {
	w       io.Writer
	crc     uint32
	n       int64 // bytes written, trailer excluded
	page    []byte
	first   []byte // the current page's first key
	last    []byte // the last key added
	index   []byte
	bloom   []byte
	entries uint64
	err     error
}

// newSegmentWriter starts a segment on w whose bloom is sized for at most
// maxEntries keys.
func newSegmentWriter(w io.Writer, maxEntries int) *segmentWriter {
	return &segmentWriter{
		w:     w,
		page:  make([]byte, 0, segmentPageBytes),
		bloom: make([]byte, bloomBytes(maxEntries)),
	}
}

func bloomBytes(keys int) int { return max(1, (keys*bloomBitsPerKey+7)/8) }

func (sw *segmentWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	sw.n += int64(len(p))
	_, sw.err = sw.w.Write(p)
}

// add appends one entry.
func (sw *segmentWriter) add(key, val []byte, tomb bool) error {
	if sw.entries > 0 && bytes.Compare(key, sw.last) <= 0 {
		return fmt.Errorf("store: segment keys out of order: %q after %q", key, sw.last)
	}
	if len(sw.page) > 0 && len(sw.page)+entryLen(len(key), val, tomb) > segmentPageBytes {
		sw.flushPage()
	}
	if len(sw.page) == 0 {
		sw.first = append(sw.first[:0], key...)
	}
	sw.page = appendEntry(sw.page, key, val, tomb)
	h1, h2 := keyHash(key)
	bloomAdd(sw.bloom, h1, h2)
	sw.last = append(sw.last[:0], key...)
	sw.entries++
	return sw.err
}

func (sw *segmentWriter) flushPage() {
	sw.write(sw.page)
	sw.index = binary.AppendUvarint(sw.index, uint64(len(sw.page)))
	sw.index = binary.AppendUvarint(sw.index, uint64(len(sw.first)))
	sw.index = append(sw.index, sw.first...)
	sw.page = sw.page[:0]
}

// finish writes what follows the pages and returns the segment's length.
func (sw *segmentWriter) finish(level int, from, to uint64, meta []byte) (int64, error) {
	if len(sw.page) > 0 {
		sw.flushPage()
	}
	sw.write(sw.bloom)
	sw.write(sw.index)
	sw.write(meta)
	var tr [segmentTrailerBytes]byte
	tr[0] = segmentVersion
	tr[1] = byte(level)
	binary.BigEndian.PutUint64(tr[2:], sw.entries)
	binary.BigEndian.PutUint64(tr[10:], from)
	binary.BigEndian.PutUint64(tr[18:], to)
	binary.BigEndian.PutUint32(tr[26:], uint32(len(sw.bloom)))
	binary.BigEndian.PutUint32(tr[30:], uint32(len(sw.index)))
	binary.BigEndian.PutUint32(tr[34:], uint32(len(meta)))
	binary.BigEndian.PutUint32(tr[38:], sw.crc)
	if sw.err == nil {
		_, sw.err = sw.w.Write(tr[:])
	}
	return sw.n + segmentTrailerBytes, sw.err
}

// loadSegment reads what stays in memory of record rec of log. Every length
// is checked against the record's before anything that size is allocated,
// so hostile bytes cost at most a few times the record's size.
func loadSegment(log SegmentLog, rec uint64) (*segment, error) {
	n, err := log.RecordLen(rec)
	if err != nil {
		return nil, err
	}
	size := int64(n)
	if size < segmentTrailerBytes {
		return nil, fmt.Errorf("%w: record %d is %d bytes", errBadSegment, rec, size)
	}
	var tr [segmentTrailerBytes]byte
	if _, err := log.ReadAt(rec, size-segmentTrailerBytes, tr[:]); err != nil {
		return nil, err
	}
	if tr[0] != segmentVersion {
		return nil, fmt.Errorf("%w: record %d version %d", errBadSegment, rec, tr[0])
	}
	s := &segment{
		rec:   rec,
		size:  size,
		level: int(tr[1]),
		from:  binary.BigEndian.Uint64(tr[10:]),
		to:    binary.BigEndian.Uint64(tr[18:]),
		crc:   binary.BigEndian.Uint32(tr[38:]),
	}
	entries := binary.BigEndian.Uint64(tr[2:])
	bloomLen := int64(binary.BigEndian.Uint32(tr[26:]))
	indexLen := int64(binary.BigEndian.Uint32(tr[30:]))
	metaLen := int64(binary.BigEndian.Uint32(tr[34:]))
	pagesLen := size - segmentTrailerBytes - bloomLen - indexLen - metaLen
	// An entry takes at least two bytes and a bloom at least one.
	if pagesLen < 0 || entries > uint64(pagesLen/2) || (entries > 0) != (pagesLen > 0) || bloomLen == 0 {
		return nil, fmt.Errorf("%w: record %d: %d entries, %d bytes of pages, %d of bloom", errBadSegment, rec, entries, pagesLen, bloomLen)
	}
	s.entries = int(entries)
	tail := make([]byte, bloomLen+indexLen+metaLen)
	if _, err := log.ReadAt(rec, pagesLen, tail); err != nil {
		return nil, err
	}
	s.bloom = tail[:bloomLen:bloomLen]
	s.meta = tail[bloomLen+indexLen:]
	if err := s.parseIndex(tail[bloomLen:bloomLen+indexLen], pagesLen); err != nil {
		return nil, fmt.Errorf("%w: record %d: %v", errBadSegment, rec, err)
	}
	if len(s.pageEnd) > s.entries {
		return nil, fmt.Errorf("%w: record %d: %d pages for %d entries", errBadSegment, rec, len(s.pageEnd), s.entries)
	}
	// The index is not kept: tail is only the bloom and meta from here on.
	s.bloom, s.meta = bytes.Clone(s.bloom), bytes.Clone(s.meta)
	return s, nil
}

// parseIndex reads the page index, counting the pages before allocating
// for them: each takes two bytes at least, of the index and of the pages.
func (s *segment) parseIndex(index []byte, pagesLen int64) error {
	pages, keyBytes := 0, 0
	var end int64
	var prev []byte
	for b := index; len(b) > 0; pages++ {
		plen, n := binary.Uvarint(b)
		if n <= 0 || plen < 2 || plen > uint64(pagesLen-end) {
			return errors.New("bad page length")
		}
		end += int64(plen)
		b = b[n:]
		kl, n := binary.Uvarint(b)
		if n <= 0 || kl > uint64(len(b)-n) {
			return errors.New("bad first-key length")
		}
		key := b[n : n+int(kl)]
		if pages > 0 && bytes.Compare(key, prev) <= 0 {
			return errors.New("pages out of order")
		}
		prev, keyBytes, b = key, keyBytes+int(kl), b[n+int(kl):]
	}
	if end != pagesLen {
		return fmt.Errorf("pages cover %d of %d bytes", end, pagesLen)
	}
	s.fences = make([]byte, 0, keyBytes)
	s.fenceEnd = make([]uint32, 0, pages)
	s.pageEnd = make([]uint32, 0, pages)
	end = 0
	for b := index; len(b) > 0; {
		plen, n := binary.Uvarint(b)
		b = b[n:]
		kl, n := binary.Uvarint(b)
		s.fences = append(s.fences, b[n:n+int(kl)]...)
		b = b[n+int(kl):]
		end += int64(plen)
		s.pageEnd = append(s.pageEnd, uint32(end))
		s.fenceEnd = append(s.fenceEnd, uint32(len(s.fences)))
	}
	return nil
}

// keyHash is the pair of hashes a key's bloom probes derive from: FNV-1a
// and a splitmix64 finalizer of it.
func keyHash[K string | []byte](key K) (h1, h2 uint64) {
	h1 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h1 ^= uint64(key[i])
		h1 *= 1099511628211
	}
	z := h1 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return h1, (z ^ (z >> 31)) | 1
}

func bloomAdd(bloom []byte, h1, h2 uint64) {
	m := uint64(len(bloom)) * 8
	for i := uint64(0); i < bloomProbes; i++ {
		b := (h1 + i*h2) % m
		bloom[b/8] |= 1 << (b % 8)
	}
}

func bloomHas(bloom []byte, h1, h2 uint64) bool {
	m := uint64(len(bloom)) * 8
	for i := uint64(0); i < bloomProbes; i++ {
		b := (h1 + i*h2) % m
		if bloom[b/8]&(1<<(b%8)) == 0 {
			return false
		}
	}
	return true
}

// segIter walks a segment's entries in key order, one page in memory at a
// time. key and val alias its page buffer until the next call to next.
type segIter struct {
	s    *segment
	log  SegmentLog
	p    int    // the next page to read
	rest []byte // what is left of the current page
	buf  []byte
	key  []byte
	val  []byte
	tomb bool
	// held makes the next call to next return the current entry again:
	// seek reads one entry past where it stops.
	held bool
	err  error
}

// seek positions the iterator before the first entry not below from.
func (it *segIter) seek(from string) {
	it.p, it.rest = max(0, it.s.pageFor(from)), nil
	for it.next() {
		if string(it.key) >= from {
			it.held = true
			return
		}
	}
}

func (it *segIter) next() bool {
	if it.held {
		it.held = false
		return true
	}
	for len(it.rest) == 0 {
		if it.err != nil || it.p >= len(it.s.pageEnd) {
			return false
		}
		it.buf, it.err = it.s.readPage(it.log, it.p, it.buf)
		if it.err != nil {
			return false
		}
		it.rest = it.buf
		it.p++
	}
	var err error
	it.key, it.val, it.tomb, it.rest, err = decodeEntry(it.rest)
	if err != nil {
		it.err = fmt.Errorf("%w: record %d page %d: %v", errBadSegment, it.s.rec, it.p-1, err)
		return false
	}
	return true
}
