package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The field codec of every canonical encoding in the repository that is
// not varint-packed: transactions, blocks and chain.log records, receipts,
// the ingest WAL, consensus's votes, proposals and certificates, and the
// wire frames (internal/transport/wire). Integers are big-endian; str8 is
// a u8 length and bytes; a byte field is a u32 length and bytes.

// Errors a Reader records.
var (
	ErrTruncated = errors.New("ledger: truncated encoding")
	ErrOversize  = errors.New("ledger: length claim exceeds limits")
	ErrTrailing  = errors.New("ledger: trailing bytes after payload")
)

// maxStr8 is the longest str8 field (node ids, message kinds).
const maxStr8 = 255

// Writer appends fields to Buf: integers, Raw bytes as they are, Bytes and
// Str with a u32 length, Str8 with a u8 one. Encoding cannot fail
// mid-stream; size limits are checked once at the end, by the caller.
type Writer struct {
	Buf []byte
}

func (w *Writer) U8(v byte) { w.Buf = append(w.Buf, v) }
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}
func (w *Writer) U32(v uint32) { w.Buf = binary.BigEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64) { w.Buf = binary.BigEndian.AppendUint64(w.Buf, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) Raw(b []byte) { w.Buf = append(w.Buf, b...) }
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Str8 writes s cut to its first 255 bytes.
func (w *Writer) Str8(s string) {
	if len(s) > maxStr8 {
		s = s[:maxStr8]
	}
	w.U8(byte(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Reader reads, with the methods of the same names, the fields a Writer
// writes, latching the first error: every read after it returns a zero
// value. Every length claim is validated against the bytes actually
// remaining before any allocation, so hostile input can neither panic a
// decoder built on it nor make it allocate more than the input's size.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error recorded.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is recorded already: a decoder reports
// with it what the fields' framing cannot see, such as an unknown op or
// keys out of order.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done returns the first error recorded, or ErrTrailing if bytes are left.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail(fmt.Errorf("%w: %d of %d consumed", ErrTrailing, r.off, len(r.buf)))
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool accepts only the two bytes the writer produces, so that every
// payload that decodes re-encodes byte-identically.
func (r *Reader) Bool() bool {
	b := r.U8()
	if b > 1 {
		r.Fail(fmt.Errorf("ledger: bool byte %#x", b))
	}
	return b == 1
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int reads an I64 field, rejecting a value outside [lo, hi].
func (r *Reader) Int(lo, hi int64) int {
	v := int64(r.U64())
	if r.err == nil && (v < lo || v > hi) {
		r.Fail(fmt.Errorf("%w: %d outside [%d, %d]", ErrOversize, v, lo, hi))
		return 0
	}
	return int(v)
}

// View reads a u32-length-prefixed byte field in place: the result aliases
// the Reader's input, nothing is copied. The claim is checked against both
// the caller's max and the bytes remaining. Decoders use it to skip a
// field, or to read a nested record with a Reader of its own.
func (r *Reader) View(max int) []byte {
	n := int(r.U32())
	if r.err == nil && n > max {
		r.Fail(fmt.Errorf("%w: field %d > max %d", ErrOversize, n, max))
	}
	return r.take(n)
}

// Bytes reads a u32-length-prefixed byte field into a fresh slice, after
// the checks View makes, so a hostile prefix cannot trigger an
// over-allocation.
func (r *Reader) Bytes(max int) []byte {
	b := r.View(max)
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

func (r *Reader) Str(max int) string {
	return string(r.View(max))
}

func (r *Reader) Str8() string {
	n := int(r.U8())
	b := r.take(n)
	return string(b)
}

// Raw fills a fixed-size field in place.
func (r *Reader) Raw(dst []byte) {
	b := r.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// Count reads a u32 element count and clamps it so that count*minSize
// cannot exceed the bytes remaining — the guard that keeps a hostile
// count from pre-allocating unbounded slices.
func (r *Reader) Count(minSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if n < 0 || n*minSize > len(r.buf)-r.off {
		r.Fail(fmt.Errorf("%w: count %d (min element %dB, %dB left)", ErrOversize, n, minSize, len(r.buf)-r.off))
		return 0
	}
	return n
}
