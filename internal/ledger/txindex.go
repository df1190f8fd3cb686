package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// The transaction index maps every committed transaction id to its block
// height and position. A chain answers TxLocation for every transaction it
// ever committed, and an answer never changes once given, so the index
// need not stay in memory.
//
// The newest entries — fewer than txIndexSealAt, plus the block that
// crosses the count — live in a map, the tail. At that block boundary the
// tail is sorted by id and sealed as one record of the index log, a
// segment. Of a segment only a bloom filter and the first id of each page
// stay in memory, about 1.6 bytes per transaction; a lookup checks the
// tail, then the blooms from the newest segment to the oldest, and reads
// one page of the segment whose bloom says yes with one pread. The log is
// read with pread rather than mapped: mapped pages count in a process's
// resident set, and the point is to keep history out of it.
//
// A segment record is, big-endian:
//
//	version u8 | from u64 | to u64 | lastID [32] | count u32
//	bloom   bloomBytes(count) bytes
//	fences  pageCount(count) × [32]  (the first id of each page)
//	pages   count × (id [32] | height−from u32 | index u32), sorted by id,
//	        txIndexPerPage entries to a page
//
// It holds every transaction of blocks from..to; lastID is the id of block
// to, which is how Open tells a segment of this chain from a stale one.

// txIndexSealAt is the tail size whose crossing seals the tail. Only tests
// change it, to seal often without committing thousands of transactions.
var txIndexSealAt = 4096

// Index-log layout constants.
const (
	// segmentVersion is the first byte of every segment record.
	segmentVersion     = 1
	segmentHeaderBytes = 1 + 8 + 8 + 32 + 4
	txEntryBytes       = 32 + 4 + 4
	txIndexPageBytes   = 4096
	txIndexPerPage     = txIndexPageBytes / txEntryBytes
	bloomBitsPerEntry  = 10
	bloomHashes        = 7
)

// IndexLog is the log a chain seals its transaction-index segments to:
// txindex.log (a store.FileLog) beside chain.log on a durable node, a
// store.MemLog otherwise. Segments are derived from the chain, so they are
// appended without fsync: one a crash loses or damages is cut at the next
// open, which checks every segment against the chain's block ids and
// writes what is missing again from the blocks.
type IndexLog interface {
	AppendUnsynced(rec []byte) (uint64, error)
	ReadAt(i uint64, off int64, buf []byte) (int, error)
	RecordLen(i uint64) (int, error)
	Len() uint64
	Truncate(n uint64) error
}

// errBadSegment marks an index-log record that is not a well-formed segment.
var errBadSegment = errors.New("ledger: malformed tx index segment")

// txPos is where a transaction sits: block height and index in the block.
type txPos struct {
	height uint64
	index  uint32
}

// segment is what stays in memory of one sealed segment.
type segment struct {
	rec      uint64 // record number in the index log
	from, to uint64 // heights covered
	count    int
	bloom    []byte
	fences   []TxID
}

// TxIndexStats describes the transaction index.
type TxIndexStats struct {
	// Memory is the number of entries in the in-memory tail.
	Memory int
	// Sealed is the number of entries in sealed segments.
	Sealed int
	// Rebuilt is the number of segments the chain's open wrote again from
	// chain.log because the index log did not hold them (0 when the index
	// log was intact).
	Rebuilt int
}

// txIndex is the tail plus the sealed segments. The chain's lock guards it.
type txIndex struct {
	log      IndexLog
	tail     map[TxID]txPos
	tailFrom uint64 // first height the tail covers
	segs     []segment
	sealed   int
	rebuilt  int
}

func (x *txIndex) add(b *Block) {
	for i, t := range b.Txs {
		x.tail[t.ID()] = txPos{height: b.Header.Height, index: uint32(i)}
	}
}

// due reports whether the tail has crossed the seal threshold.
func (x *txIndex) due() bool { return len(x.tail) >= txIndexSealAt }

// seal writes the tail as a segment covering heights tailFrom..to, to
// being the height of the block just indexed, and starts an empty tail.
// On error the tail is left as it was.
func (x *txIndex) seal(to uint64, lastID BlockID) error {
	entries := make([]txEntry, 0, len(x.tail))
	for id, pos := range x.tail {
		if pos.height-x.tailFrom > math.MaxUint32 {
			return fmt.Errorf("ledger: seal tx index: %d heights in one segment", pos.height-x.tailFrom)
		}
		entries = append(entries, txEntry{id, pos})
	}
	slices.SortFunc(entries, func(a, b txEntry) int { return bytes.Compare(a.id[:], b.id[:]) })
	rec := encodeSegment(x.tailFrom, to, lastID, entries)
	k, err := x.log.AppendUnsynced(rec)
	if err != nil {
		return fmt.Errorf("ledger: seal tx index: %w", err)
	}
	seg, _, err := decodeSegmentMeta(rec, int64(len(rec)))
	if err != nil {
		return err // encodeSegment and decodeSegmentMeta disagree: a bug
	}
	seg.rec = k
	x.segs = append(x.segs, seg)
	x.sealed += len(entries)
	x.tail = make(map[TxID]txPos)
	x.tailFrom = to + 1
	return nil
}

// lookup finds id in the tail or a sealed segment. An error means a
// segment page could not be read or is malformed.
func (x *txIndex) lookup(id TxID) (txPos, bool, error) {
	if pos, ok := x.tail[id]; ok {
		return pos, true, nil
	}
	for i := len(x.segs) - 1; i >= 0; i-- {
		s := &x.segs[i]
		if !bloomHas(s.bloom, id) {
			continue
		}
		pos, ok, err := s.find(x.log, id)
		if err != nil || ok {
			return pos, ok, err
		}
	}
	return txPos{}, false, nil
}

// find reads the one page of s that can hold id.
func (s *segment) find(log IndexLog, id TxID) (txPos, bool, error) {
	p := sort.Search(len(s.fences), func(p int) bool { return bytes.Compare(s.fences[p][:], id[:]) > 0 }) - 1
	if p < 0 {
		return txPos{}, false, nil
	}
	first := p * txIndexPerPage
	n := min(txIndexPerPage, s.count-first)
	page := make([]byte, n*txEntryBytes)
	off := s.pagesOff() + int64(first)*txEntryBytes
	if _, err := log.ReadAt(s.rec, off, page); err != nil {
		return txPos{}, false, fmt.Errorf("ledger: read tx index segment %d: %w", s.rec, err)
	}
	e := sort.Search(n, func(e int) bool { return bytes.Compare(page[e*txEntryBytes:e*txEntryBytes+32], id[:]) >= 0 })
	if e == n || !bytes.Equal(page[e*txEntryBytes:e*txEntryBytes+32], id[:]) {
		return txPos{}, false, nil
	}
	entry := page[e*txEntryBytes+32:]
	height := s.from + uint64(binary.BigEndian.Uint32(entry))
	if height > s.to {
		return txPos{}, false, fmt.Errorf("%w: record %d places a tx at height %d outside %d..%d", errBadSegment, s.rec, height, s.from, s.to)
	}
	return txPos{height: height, index: binary.BigEndian.Uint32(entry[4:])}, true, nil
}

// pagesOff is the byte offset of the first page inside the record.
func (s *segment) pagesOff() int64 {
	return segmentHeaderBytes + int64(len(s.bloom)) + 32*int64(len(s.fences))
}

// txEntry is one index entry on its way into a segment.
type txEntry struct {
	id  TxID
	pos txPos
}

func bloomBytes(count int64) int64 { return (count*bloomBitsPerEntry + 7) / 8 }

func pageCount(count int64) int64 { return (count + txIndexPerPage - 1) / txIndexPerPage }

// segmentBytes is the length of a segment record of count entries.
func segmentBytes(count int64) int64 {
	return segmentHeaderBytes + bloomBytes(count) + 32*pageCount(count) + txEntryBytes*count
}

// encodeSegment lays out entries, sorted by id, as a segment record.
func encodeSegment(from, to uint64, lastID BlockID, entries []txEntry) []byte {
	count := int64(len(entries))
	rec := make([]byte, segmentBytes(count))
	rec[0] = segmentVersion
	binary.BigEndian.PutUint64(rec[1:], from)
	binary.BigEndian.PutUint64(rec[9:], to)
	copy(rec[17:], lastID[:])
	binary.BigEndian.PutUint32(rec[49:], uint32(count))
	bloom := rec[segmentHeaderBytes : segmentHeaderBytes+bloomBytes(count)]
	fences := rec[segmentHeaderBytes+bloomBytes(count):]
	pages := rec[segmentHeaderBytes+bloomBytes(count)+32*pageCount(count):]
	for i, e := range entries {
		bloomAdd(bloom, e.id)
		if i%txIndexPerPage == 0 {
			copy(fences[32*(i/txIndexPerPage):], e.id[:])
		}
		out := pages[i*txEntryBytes:]
		copy(out, e.id[:])
		binary.BigEndian.PutUint32(out[32:], uint32(e.pos.height-from))
		binary.BigEndian.PutUint32(out[36:], e.pos.index)
	}
	return rec
}

// decodeSegmentMeta parses what stays in memory of a segment — header,
// bloom, fences — from meta, the first bytes of a record of recLen bytes.
// It checks the record length against the entry count before allocating,
// so a hostile count cannot make it allocate more than the record holds.
func decodeSegmentMeta(meta []byte, recLen int64) (segment, BlockID, error) {
	var lastID BlockID
	if len(meta) < segmentHeaderBytes {
		return segment{}, lastID, fmt.Errorf("%w: %d-byte header", errBadSegment, len(meta))
	}
	if meta[0] != segmentVersion {
		return segment{}, lastID, fmt.Errorf("%w: version %d", errBadSegment, meta[0])
	}
	s := segment{from: binary.BigEndian.Uint64(meta[1:]), to: binary.BigEndian.Uint64(meta[9:])}
	copy(lastID[:], meta[17:])
	count := int64(binary.BigEndian.Uint32(meta[49:]))
	if count == 0 || s.to < s.from || segmentBytes(count) != recLen {
		return segment{}, lastID, fmt.Errorf("%w: %d entries, heights %d..%d, %d bytes", errBadSegment, count, s.from, s.to, recLen)
	}
	metaLen := segmentHeaderBytes + bloomBytes(count) + 32*pageCount(count)
	if int64(len(meta)) < metaLen {
		return segment{}, lastID, fmt.Errorf("%w: %d bytes of metadata, want %d", errBadSegment, len(meta), metaLen)
	}
	s.count = int(count)
	s.bloom = bytes.Clone(meta[segmentHeaderBytes : segmentHeaderBytes+bloomBytes(count)])
	s.fences = make([]TxID, pageCount(count))
	for p := range s.fences {
		copy(s.fences[p][:], meta[segmentHeaderBytes+bloomBytes(count)+32*int64(p):])
	}
	return s, lastID, nil
}

// loadSegment reads record k of log as a segment.
func loadSegment(log IndexLog, k uint64) (segment, BlockID, error) {
	n, err := log.RecordLen(k)
	if err != nil {
		return segment{}, BlockID{}, err
	}
	hdr := make([]byte, min(n, segmentHeaderBytes))
	if _, err := log.ReadAt(k, 0, hdr); err != nil {
		return segment{}, BlockID{}, err
	}
	if len(hdr) == segmentHeaderBytes {
		// The header's count sizes the metadata; decodeSegmentMeta checks it
		// against the record length before anything that size is allocated.
		count := int64(binary.BigEndian.Uint32(hdr[49:]))
		if segmentBytes(count) == int64(n) {
			hdr = make([]byte, segmentHeaderBytes+bloomBytes(count)+32*pageCount(count))
			if _, err := log.ReadAt(k, 0, hdr); err != nil {
				return segment{}, BlockID{}, err
			}
		}
	}
	s, lastID, err := decodeSegmentMeta(hdr, int64(n))
	s.rec = k
	return s, lastID, err
}

// bloomHashPair returns the two hashes of double hashing for id: ids are
// SHA-256 outputs, so their bytes serve as they are.
func bloomHashPair(id TxID) (h1, h2 uint64) {
	return binary.BigEndian.Uint64(id[0:8]), binary.BigEndian.Uint64(id[8:16]) | 1
}

func bloomAdd(bloom []byte, id TxID) {
	m := uint64(len(bloom)) * 8
	h1, h2 := bloomHashPair(id)
	for i := uint64(0); i < bloomHashes; i++ {
		b := (h1 + i*h2) % m
		bloom[b/8] |= 1 << (b % 8)
	}
}

func bloomHas(bloom []byte, id TxID) bool {
	m := uint64(len(bloom)) * 8
	if m == 0 {
		return false
	}
	h1, h2 := bloomHashPair(id)
	for i := uint64(0); i < bloomHashes; i++ {
		b := (h1 + i*h2) % m
		if bloom[b/8]&(1<<(b%8)) == 0 {
			return false
		}
	}
	return true
}
