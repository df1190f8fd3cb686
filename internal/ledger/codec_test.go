package ledger

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReader drives a Reader over arbitrary bytes with a script of reads,
// one per script byte: the low bits pick the read, the high four a size or
// limit for the reads that take one. No read may panic; a count or length
// the Reader accepts must fit in the bytes that were left; the first error
// sticks and stops the Reader where it was; and the reads together
// allocate at most a constant factor of the input.
func FuzzReader(f *testing.F) {
	var w Writer
	w.U8(7)
	w.Bool(true)
	w.U32(3)
	w.U64(1 << 40)
	w.I64(-1)
	w.Bytes([]byte("field"))
	w.Str("str")
	w.Str8("s8")
	w.Raw([]byte{1, 2, 3})
	w.U32(2)
	f.Add(w.Buf, []byte{0x00, 0x01, 0x02, 0x03, 0x14, 0x55, 0x46, 0x08, 0x39, 0x2a})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, []byte{0xf5, 0xf6, 0x1a})
	f.Add([]byte{0, 0, 0, 9, 1}, []byte{0x17, 0x00})
	f.Add([]byte{}, []byte{0x00})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(data)
		var raw [15]byte
		for _, op := range script {
			off, err := r.off, r.err
			arg := int(op >> 4)
			var field []byte // what a length-prefixed read returned
			count, isField := -1, false
			switch op % 11 {
			case 0:
				r.U8()
			case 1:
				r.Bool()
			case 2:
				r.U32()
			case 3:
				r.U64()
			case 4:
				r.Int(int64(-arg), int64(arg))
			case 5:
				field, isField = r.View(4*arg), true
			case 6:
				field, isField = r.Bytes(4*arg), true
			case 7:
				field, isField = []byte(r.Str(4*arg)), true
			case 8:
				r.Str8()
			case 9:
				r.Raw(raw[:arg])
			case 10:
				count = r.Count(arg)
			}
			if r.off > len(data) {
				t.Fatalf("op %d: offset %d past the %d bytes", op, r.off, len(data))
			}
			if err != nil || r.err != nil {
				if err != nil && (r.err != err || r.off != off) {
					t.Fatalf("op %d after %v: error %v, offset %d -> %d", op, err, r.err, off, r.off)
				}
				if len(field) > 0 || count > 0 {
					t.Fatalf("op %d failed (%v) but returned %d bytes, count %d", op, r.err, len(field), count)
				}
				continue
			}
			if isField && (len(field) > 4*arg || r.off != off+4+len(field) || !bytes.Equal(field, data[off+4:r.off])) {
				t.Fatalf("op %d: field of %d bytes (max %d) moved the offset %d -> %d", op, len(field), 4*arg, off, r.off)
			}
			if count >= 0 && count*max(arg, 1) > len(data)-r.off {
				t.Fatalf("op %d: count %d of %d-byte elements with %d bytes left", op, count, max(arg, 1), len(data)-r.off)
			}
		}
		clean := r.err == nil && r.off == len(data)
		if err := r.Done(); (err == nil) != clean {
			t.Fatalf("Done = %v at offset %d of %d", err, r.off, len(data))
		}
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+1<<16); grew > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
	})
}
