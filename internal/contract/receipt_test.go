package contract

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ledger"
)

// sampleReceipts covers every field shape the engine produces: success
// with a result and events, an event without attributes, a bare failure.
func sampleReceipts() []Receipt {
	return []Receipt{
		{TxID: ledger.TxID{1}, OK: true, Result: []byte("r"), GasUsed: 1234, Events: []Event{
			{Contract: "news", Type: "published", Attrs: map[string]string{"id": "n1", "topic": "health", "creator": "ab"}},
			{Contract: "news", Type: "touched", Attrs: map[string]string{}},
		}},
		{TxID: ledger.TxID{2}, Err: "identity: not registered", GasUsed: 40},
		{TxID: ledger.TxID{3}, OK: true},
	}
}

// decodeAll decodes every receipt a record announces, one DecodeReceiptAt
// each, stopping at the first that fails.
func decodeAll(raw []byte) ([]Receipt, error) {
	if len(raw) < 4 {
		_, err := DecodeReceiptAt(raw, 0)
		return nil, err
	}
	var recs []Receipt
	for i, n := 0, int(binary.BigEndian.Uint32(raw)); i < n; i++ {
		rec, err := DecodeReceiptAt(raw, i)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func TestReceiptsRoundTrip(t *testing.T) {
	recs := sampleReceipts()
	raw := EncodeReceipts(recs)
	got, err := decodeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip changed the receipts:\n got %+v\nwant %+v", got, recs)
	}
	for _, i := range []int{-1, len(recs)} {
		if _, err := DecodeReceiptAt(raw, i); err == nil {
			t.Fatalf("DecodeReceiptAt(%d) of %d receipts succeeded", i, len(recs))
		}
	}
	// Attribute order is the encoder's, not the map's: the bytes repeat.
	for i := 0; i < 20; i++ {
		if again := EncodeReceipts(recs); !bytes.Equal(again, raw) {
			t.Fatalf("encoding is not deterministic:\n%x\n%x", raw, again)
		}
	}
	if rec, err := DecodeReceiptAt(EncodeReceipts(nil), 0); err == nil {
		t.Fatalf("empty block: decoded %+v", rec)
	}
}

// Bytes that are not what the encoder writes do not decode: a receipt's
// bytes are either its one encoding or an error, and a hostile count or
// length is refused before it is believed.
func TestReceiptsDecodeRejectsNonCanonical(t *testing.T) {
	one := func(r Receipt) []byte { return EncodeReceipts([]Receipt{r}) }
	ev := Receipt{OK: true, Events: []Event{{Contract: "c", Type: "t", Attrs: map[string]string{"a": "1", "b": "2"}}}}
	swapped := one(ev)
	// The two attributes are the last 2 x (4+1+4+1) bytes; swap them.
	n := len(swapped)
	a, b := append([]byte(nil), swapped[n-20:n-10]...), append([]byte(nil), swapped[n-10:]...)
	copy(swapped[n-20:], b)
	copy(swapped[n-10:], a)

	okTwo := one(Receipt{OK: true})
	okTwo[4+4+32] = 2

	hugeEvents := one(Receipt{})
	binary.BigEndian.PutUint32(hugeEvents[len(hugeEvents)-4:], 0xffffffff)

	// One byte more than the fields, inside the receipt's length.
	padded := append(one(Receipt{}), 0)
	binary.BigEndian.PutUint32(padded[4:], uint32(len(padded)-8))

	cases := map[string][]byte{
		"empty":                 {},
		"count beyond the data": binary.BigEndian.AppendUint32(nil, 0xffffffff),
		"trailing byte":         padded,
		"attrs out of order":    swapped,
		"ok flag 2":             okTwo,
		"event count 4G":        hugeEvents,
		"truncated":             one(ev)[:len(one(ev))-1],
	}
	for name, raw := range cases {
		if rec, err := DecodeReceiptAt(raw, 0); err == nil {
			t.Errorf("%s: decoded to %+v", name, rec)
		}
	}
}

// FuzzReceiptsDecode feeds arbitrary bytes to the receipt decoder: it must
// not panic, a record whose every receipt decodes must encode back to the
// very same bytes (but for what trails the last receipt, which the decoder
// never reads), and a record cannot make the decoder allocate out of
// proportion to its size — counts and lengths are checked against the
// bytes left before anything is made.
func FuzzReceiptsDecode(f *testing.F) {
	f.Add(EncodeReceipts(sampleReceipts()))
	f.Add(EncodeReceipts(nil))
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, 0xffffffff))
	hostile := EncodeReceipts([]Receipt{{OK: true}})
	binary.BigEndian.PutUint32(hostile[len(hostile)-4:], 0xfffffff0)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := decodeAll(raw)
		runtime.ReadMemStats(&after)
		// Decoded receipts are larger than their encoding (a 12-byte empty
		// event becomes a struct and a map), but by a constant factor.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), grew, limit)
		}
		if err != nil {
			return
		}
		if again := EncodeReceipts(recs); !bytes.HasPrefix(raw, again) {
			t.Fatalf("decoded record re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}

// TestEncodeReceiptsExactSize: the record is written into one buffer of
// exactly its size, so encoding never grows it.
func TestEncodeReceiptsExactSize(t *testing.T) {
	for _, recs := range [][]Receipt{nil, sampleReceipts(), benchReceipts(64)} {
		out := EncodeReceipts(recs)
		if len(out) != cap(out) {
			t.Fatalf("%d receipts: %d bytes in a %d-byte buffer", len(recs), len(out), cap(out))
		}
	}
}

// benchReceipts is n receipts shaped like a flood block's: each a
// successful publish with one event of four attributes.
func benchReceipts(n int) []Receipt {
	recs := make([]Receipt, n)
	for i := range recs {
		recs[i] = Receipt{TxID: ledger.TxID{byte(i), byte(i >> 8)}, OK: true, GasUsed: 2100, Events: []Event{{
			Contract: "news", Type: "published",
			Attrs: map[string]string{"id": "flood-item-" + string(rune('a'+i%26)), "topic": "politics", "creator": "0123456789abcdef0123456789abcdef01234567", "cid": ""},
		}}}
	}
	return recs
}

// BenchmarkEncodeReceipts: one receipt-log record of a 128-transaction
// block (go test -bench EncodeReceipts -benchmem ./internal/contract).
func BenchmarkEncodeReceipts(b *testing.B) {
	recs := benchReceipts(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeReceipts(recs)
	}
}
