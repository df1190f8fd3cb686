package search

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// snapshotMagic opens every snapshot blob. A blob without it, the JSON
// snapshot of earlier builds among them, is rejected: the node then rebuilds
// the index by replaying the chain. There is no migration.
const snapshotMagic = "TNSX1"

// ErrBadSnapshot is wrapped by every Restore error about the blob itself.
var ErrBadSnapshot = errors.New("search: bad index snapshot")

// snapshot encodes the published index (the memtables are sealed first; the
// platform flushes the indexer before checkpointing). After snapshotMagic
// the blob holds, in this order:
//
//   - the doc table in internal order: a uvarint count, then per document
//     its id and topic (each a uvarint length and the bytes) and its token
//     count as a uvarint;
//   - the terms in ascending byte order: a uvarint count, then each term as
//     a uvarint length and the bytes;
//   - per term, in the same order, its posting list merged across segments
//     into one packed list (see packed), as a uvarint length and the bytes.
//
// The segments hold ascending disjoint document ranges, so merging is
// concatenation. Nothing in the blob depends on the segment layout: two indexes of the same
// documents in the same order write the same bytes.
func (x *Index) snapshot() []byte {
	x.wmu.Lock()
	x.refreshLocked()
	docs := x.docs.Load()
	x.wmu.Unlock()

	lists := make(map[string][]packed)
	size := len(snapshotMagic) + binary.MaxVarintLen64
	for _, seg := range *x.segments.Load() {
		for term, l := range seg.postings {
			lists[term] = append(lists[term], l)
			size += len(l) + 2*binary.MaxVarintLen64
		}
	}
	for _, d := range docs.infos {
		size += len(d.ID) + len(d.Topic) + 3*binary.MaxVarintLen32
	}
	terms := make([]string, 0, len(lists))
	for term := range lists {
		terms = append(terms, term)
	}
	slices.Sort(terms)

	out := make([]byte, 0, size)
	out = append(out, snapshotMagic...)
	out = binary.AppendUvarint(out, uint64(len(docs.infos)))
	for _, d := range docs.infos {
		out = appendString(out, d.ID)
		out = appendString(out, d.Topic)
		out = binary.AppendUvarint(out, uint64(d.Length))
	}
	out = binary.AppendUvarint(out, uint64(len(terms)))
	for _, term := range terms {
		out = appendString(out, term)
	}
	var merged []byte
	for _, term := range terms {
		merged = appendMerged(merged[:0], lists[term])
		out = binary.AppendUvarint(out, uint64(len(merged)))
		out = append(out, merged...)
	}
	return out
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendMerged appends the packed form of lists concatenated, each list's
// documents following the one before's.
func appendMerged(dst []byte, lists []packed) []byte {
	if len(lists) == 1 {
		return append(dst, lists[0]...)
	}
	n := 0
	for _, l := range lists {
		n += l.count()
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	prev := int32(0)
	for _, l := range lists {
		l.each(func(doc, tf int32) bool {
			dst = binary.AppendUvarint(dst, uint64(doc-prev))
			dst = binary.AppendUvarint(dst, uint64(tf))
			prev = doc
			return true
		})
	}
	return dst
}

// restore replaces the index state with a snapshot's; an empty blob is an
// empty index. The blob is checked whole before anything is replaced, and
// anything snapshot did not write is an error wrapping ErrBadSnapshot, never
// a panic: every length and count is bounded by the bytes that remain (so a
// hostile blob cannot make restore allocate more than a small multiple of
// its size), document ids are unique, terms strictly ascending, and every
// list is well formed with its stated count, ascending documents inside the
// doc table and nonzero frequencies. The restored strings share one copy of
// the blob, and the lists become the index's only segment as they are:
// nothing is re-packed.
func (x *Index) restore(data []byte) error {
	var (
		infos    []docInfo
		byID     = make(map[string]int32)
		totalLen int64
		postings = make(map[string]packed)
		terms    []string
	)
	if len(data) > 0 {
		r := snapReader{s: string(data)}
		if !strings.HasPrefix(r.s, snapshotMagic) {
			return fmt.Errorf("%w: not a packed index snapshot", ErrBadSnapshot)
		}
		r.i = len(snapshotMagic)
		// A document takes at least three bytes, a term at least six: its
		// own length byte and one byte, and a list of one posting with its
		// length.
		n, err := r.count(3)
		if err != nil {
			return fmt.Errorf("%w: doc table: %v", ErrBadSnapshot, err)
		}
		infos = make([]docInfo, n)
		byID = make(map[string]int32, n)
		for i := range infos {
			d := &infos[i]
			d.ID, err = r.str()
			if err == nil {
				d.Topic, err = r.str()
			}
			var length uint64
			if err == nil {
				length, err = r.uvarint()
			}
			switch {
			case err != nil:
			case d.ID == "":
				err = errors.New("empty id")
			case length > math.MaxInt32:
				err = fmt.Errorf("length %d", length)
			default:
				if _, dup := byID[d.ID]; dup {
					err = fmt.Errorf("id %q twice", d.ID)
				}
			}
			if err != nil {
				return fmt.Errorf("%w: document %d: %v", ErrBadSnapshot, i, err)
			}
			d.Length = int32(length)
			byID[d.ID] = int32(i)
			totalLen += int64(length)
		}
		if n, err = r.count(6); err != nil {
			return fmt.Errorf("%w: terms: %v", ErrBadSnapshot, err)
		}
		terms = make([]string, n)
		for i := range terms {
			t, err := r.str()
			switch {
			case err != nil:
			case t == "":
				err = errors.New("empty term")
			case i > 0 && t <= terms[i-1]:
				err = fmt.Errorf("%q after %q", t, terms[i-1])
			}
			if err != nil {
				return fmt.Errorf("%w: term %d: %v", ErrBadSnapshot, i, err)
			}
			terms[i] = t
		}
		for _, term := range terms {
			l, err := r.str()
			if err == nil {
				err = checkList(l, len(infos))
			}
			if err != nil {
				return fmt.Errorf("%w: postings of %q: %v", ErrBadSnapshot, term, err)
			}
			postings[term] = packed(l)
		}
		if r.i != len(r.s) {
			return fmt.Errorf("%w: %d bytes after the last list", ErrBadSnapshot, len(r.s)-r.i)
		}
	}

	x.wmu.Lock()
	defer x.wmu.Unlock()
	x.byID = byID
	x.terms = make(map[string]string, len(terms))
	for _, t := range terms {
		x.terms[t] = t
	}
	x.infos = infos
	x.totalLen = totalLen
	x.mem = make(map[string][]posting)
	x.memDocs = 0
	x.docs.Store(&docsView{infos: x.infos[:len(x.infos):len(x.infos)], totalLen: x.totalLen})
	x.segments.Store(&[]*segment{{postings: postings, docs: len(x.infos)}})
	return nil
}

// checkList reports whether l is a packed list restore may install: a
// nonzero count equal to the postings that follow, documents strictly
// ascending and below docs, frequencies in [1, MaxInt32], and nothing else.
func checkList(l string, docs int) error {
	count, i, err := readUvarint(l, 0)
	if err != nil {
		return err
	}
	if count == 0 {
		return errors.New("empty list")
	}
	var n, doc uint64
	for i < len(l) {
		var d, tf uint64
		if d, i, err = readUvarint(l, i); err != nil {
			return err
		}
		if tf, i, err = readUvarint(l, i); err != nil {
			return err
		}
		if n > 0 && d == 0 {
			return fmt.Errorf("posting %d repeats document %d", n, doc)
		}
		if d >= uint64(docs) || doc+d >= uint64(docs) {
			return fmt.Errorf("posting %d names a document past the table's %d", n, docs)
		}
		if tf == 0 || tf > math.MaxInt32 {
			return fmt.Errorf("posting %d has frequency %d", n, tf)
		}
		doc += d
		n++
	}
	if n != count {
		return fmt.Errorf("list states %d postings, holds %d", count, n)
	}
	return nil
}

// snapReader reads a snapshot blob, bounds-checked.
type snapReader struct {
	s string
	i int
}

func (r *snapReader) uvarint() (uint64, error) {
	v, i, err := readUvarint(r.s, r.i)
	r.i = i
	return v, err
}

// count reads how many items follow, each at least least bytes long, and
// rejects a count the remaining bytes could not hold.
func (r *snapReader) count(least int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64((len(r.s)-r.i)/least) {
		return 0, fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.s)-r.i)
	}
	return int(n), nil
}

// str reads a length-prefixed string, a substring of the blob.
func (r *snapReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.s)-r.i) {
		return "", fmt.Errorf("length %d exceeds the %d bytes left", n, len(r.s)-r.i)
	}
	s := r.s[r.i : r.i+int(n)]
	r.i += int(n)
	return s, nil
}

// readUvarint decodes the uvarint at s[i:] like uvarintAt, but rejects a
// truncated, overlong or non-minimal encoding instead of trusting s.
func readUvarint(s string, i int) (uint64, int, error) {
	if i < len(s) && s[i] < 0x80 {
		return uint64(s[i]), i + 1, nil
	}
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if i >= len(s) {
			return 0, i, errors.New("truncated uvarint")
		}
		c := s[i]
		i++
		if shift == 63 && c > 1 {
			break
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if c == 0 && shift > 0 {
				return 0, i, errors.New("non-minimal uvarint")
			}
			return v, i, nil
		}
	}
	return 0, i, errors.New("uvarint overflows 64 bits")
}
