package contract

import (
	"fmt"
	"sort"

	"repro/internal/ledger"
)

// Canonical binary encoding of a block's receipts — one record of the
// platform's receipt log, in the ledger's field codec (ledger.Writer /
// ledger.Reader), like transactions and blocks:
//
//	record  = count u32 ‖ count × bytes(receipt)
//	receipt = txid [32] ‖ ok u8 (0|1) ‖ gas u64 ‖ bytes(result) ‖ bytes(err)
//	          ‖ events u32 ‖ events × event
//	event   = bytes(contract) ‖ bytes(type) ‖ attrs u32
//	          ‖ attrs × (bytes(key) ‖ bytes(value)), keys strictly ascending
//
// Every receipt sits behind its own length, so one is decoded without the
// others (DecodeReceiptAt is the only decoder). A receipt's bytes decode to
// at most one value and that value encodes back to the same bytes: counts
// and lengths are checked against the bytes that remain before anything is
// allocated, a bool is 0 or 1, attribute keys must ascend, and nothing may
// trail inside a receipt's length.

// The least an encoded receipt (behind its length), event and attribute
// occupy; a count claiming more elements than fit in the bytes that remain
// is rejected before the first one is read.
const (
	minReceiptBytes = 4 + 32 + 1 + 8 + 4 + 4 + 4
	minEventBytes   = 4 + 4 + 4
	minAttrBytes    = 4 + 4
)

// EncodeReceipts returns the canonical encoding of a block's receipts in
// transaction order, into one buffer of the record's exact size.
func EncodeReceipts(recs []Receipt) []byte {
	size := 4
	for i := range recs {
		size += 4 + receiptLen(&recs[i])
	}
	w := ledger.Writer{Buf: make([]byte, 0, size)}
	w.U32(uint32(len(recs)))
	var keys []string
	for i := range recs {
		at := len(w.Buf)
		w.U32(0) // the receipt's length, overwritten in place once it is written
		keys = writeReceipt(&w, &recs[i], keys)
		length := ledger.Writer{Buf: w.Buf[at:at]}
		length.U32(uint32(len(w.Buf) - at - 4))
	}
	return w.Buf
}

// receiptLen is the length of r's encoding, its own length prefix not
// included.
func receiptLen(r *Receipt) int {
	n := minReceiptBytes - 4 + len(r.Result) + len(r.Err)
	for _, ev := range r.Events {
		n += minEventBytes + len(ev.Contract) + len(ev.Type)
		for k, v := range ev.Attrs {
			n += minAttrBytes + len(k) + len(v)
		}
	}
	return n
}

// writeReceipt writes r's encoding. keys is scratch space for an event's
// sorted attribute keys, returned for the next call.
func writeReceipt(w *ledger.Writer, r *Receipt, keys []string) []string {
	w.Raw(r.TxID[:])
	w.Bool(r.OK)
	w.U64(r.GasUsed)
	w.Bytes(r.Result)
	w.Str(r.Err)
	w.U32(uint32(len(r.Events)))
	for _, ev := range r.Events {
		w.Str(ev.Contract)
		w.Str(ev.Type)
		keys = keys[:0]
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			w.Str(k)
			w.Str(ev.Attrs[k])
		}
	}
	return keys
}

// DecodeReceiptAt parses the i-th receipt of a record written by
// EncodeReceipts, skipping over the ones before it without copying them
// and reading nothing behind it.
func DecodeReceiptAt(raw []byte, i int) (Receipt, error) {
	r := ledger.NewReader(raw)
	if n := r.Count(minReceiptBytes); r.Err() == nil && (i < 0 || i >= n) {
		r.Fail(fmt.Errorf("index %d of %d receipts", i, n))
	}
	for ; i > 0; i-- {
		r.View(len(raw))
	}
	one := r.View(len(raw))
	if err := r.Err(); err != nil {
		return Receipt{}, fmt.Errorf("contract: receipt: %w", err)
	}
	return decodeReceipt(one)
}

func decodeReceipt(raw []byte) (Receipt, error) {
	var rec Receipt
	r := ledger.NewReader(raw)
	r.Raw(rec.TxID[:])
	rec.OK = r.Bool()
	rec.GasUsed = r.U64()
	if result := r.Bytes(len(raw)); len(result) > 0 {
		rec.Result = result
	}
	rec.Err = r.Str(len(raw))
	if n := r.Count(minEventBytes); n > 0 {
		rec.Events = make([]Event, n)
	}
	for i := 0; i < len(rec.Events) && r.Err() == nil; i++ {
		readEvent(r, &rec.Events[i], len(raw))
	}
	if err := r.Done(); err != nil {
		return Receipt{}, fmt.Errorf("contract: receipt: %w", err)
	}
	return rec, nil
}

// readEvent reads one event whose fields are at most max bytes each.
func readEvent(r *ledger.Reader, ev *Event, max int) {
	ev.Contract = r.Str(max)
	ev.Type = r.Str(max)
	n := r.Count(minAttrBytes)
	// Emit always stores a map, an empty one for an event without attributes.
	ev.Attrs = make(map[string]string, n)
	var prev string
	for j := 0; j < n && r.Err() == nil; j++ {
		k := r.Str(max)
		if j > 0 && prev >= k {
			r.Fail(fmt.Errorf("attr key %q out of order", k))
		}
		ev.Attrs[k] = r.Str(max)
		prev = k
	}
}
