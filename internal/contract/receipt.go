package contract

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/ledger"
)

// Canonical binary encoding of a block's receipts — one record of the
// platform's receipt log. It is built from the ledger's length-prefixed
// fields (ledger.AppendBytes / ledger.ReadBytes), like transactions and
// blocks:
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
	out := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(recs)))
	var keys []string
	for i := range recs {
		at := len(out)
		out, keys = appendReceipt(append(out, 0, 0, 0, 0), &recs[i], keys)
		binary.BigEndian.PutUint32(out[at:], uint32(len(out)-at-4))
	}
	return out
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

// appendReceipt appends r's encoding to dst. keys is scratch space for an
// event's sorted attribute keys, returned for the next call.
func appendReceipt(dst []byte, r *Receipt, keys []string) ([]byte, []string) {
	dst = append(dst, r.TxID[:]...)
	if r.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, r.GasUsed)
	dst = ledger.AppendBytes(dst, r.Result)
	dst = appendString(dst, r.Err)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Events)))
	for _, ev := range r.Events {
		dst = appendString(dst, ev.Contract)
		dst = appendString(dst, ev.Type)
		keys = keys[:0]
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
		for _, k := range keys {
			dst = appendString(dst, k)
			dst = appendString(dst, ev.Attrs[k])
		}
	}
	return dst, keys
}

// appendString is ledger.AppendBytes for a string, without copying it to
// a byte slice first.
func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// DecodeReceiptAt parses the i-th receipt of a record written by
// EncodeReceipts, skipping over the ones before it and reading nothing
// behind it.
func DecodeReceiptAt(raw []byte, i int) (Receipt, error) {
	r := bytes.NewReader(raw)
	n, err := readCount(r, minReceiptBytes)
	if err != nil {
		return Receipt{}, fmt.Errorf("contract: receipt count: %w", err)
	}
	if i < 0 || i >= n {
		return Receipt{}, fmt.Errorf("contract: receipt %d of %d", i, n)
	}
	for ; i > 0; i-- {
		size, err := readCount(r, 1)
		if err != nil {
			return Receipt{}, fmt.Errorf("contract: skip receipt: %w", err)
		}
		_, _ = r.Seek(int64(size), io.SeekCurrent) // within the reader: readCount checked
	}
	one, err := ledger.ReadBytes(r)
	if err != nil {
		return Receipt{}, fmt.Errorf("contract: receipt: %w", err)
	}
	return decodeReceipt(one)
}

// readCount reads a u32 element count (or byte length, with each = 1) and
// rejects one whose elements, at each bytes apiece, cannot fit in what r
// still holds.
func readCount(r *bytes.Reader, each int) (int, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return 0, fmt.Errorf("short count: %w", err)
	}
	count := binary.BigEndian.Uint32(n[:])
	if uint64(count)*uint64(each) > uint64(r.Len()) {
		return 0, fmt.Errorf("count %d exceeds the %d bytes left", count, r.Len())
	}
	return int(count), nil
}

func decodeReceipt(raw []byte) (Receipt, error) {
	var rec Receipt
	r := bytes.NewReader(raw)
	var fixed [len(rec.TxID) + 1 + 8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return rec, fmt.Errorf("short header: %w", err)
	}
	copy(rec.TxID[:], fixed[:])
	switch fixed[len(rec.TxID)] {
	case 0:
	case 1:
		rec.OK = true
	default:
		return rec, fmt.Errorf("ok flag %d", fixed[len(rec.TxID)])
	}
	rec.GasUsed = binary.BigEndian.Uint64(fixed[len(rec.TxID)+1:])
	result, err := ledger.ReadBytes(r)
	if err != nil {
		return rec, fmt.Errorf("result: %w", err)
	}
	if len(result) > 0 {
		rec.Result = result
	}
	errText, err := ledger.ReadBytes(r)
	if err != nil {
		return rec, fmt.Errorf("err: %w", err)
	}
	rec.Err = string(errText)
	events, err := readCount(r, minEventBytes)
	if err != nil {
		return rec, fmt.Errorf("events: %w", err)
	}
	if events > 0 {
		rec.Events = make([]Event, events)
	}
	for i := range rec.Events {
		if err := decodeEvent(r, &rec.Events[i]); err != nil {
			return rec, fmt.Errorf("event %d: %w", i, err)
		}
	}
	if r.Len() != 0 {
		return rec, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return rec, nil
}

func decodeEvent(r *bytes.Reader, ev *Event) error {
	name, err := ledger.ReadBytes(r)
	if err != nil {
		return fmt.Errorf("contract: %w", err)
	}
	typ, err := ledger.ReadBytes(r)
	if err != nil {
		return fmt.Errorf("type: %w", err)
	}
	ev.Contract, ev.Type = string(name), string(typ)
	attrs, err := readCount(r, minAttrBytes)
	if err != nil {
		return fmt.Errorf("attrs: %w", err)
	}
	// Emit always stores a map, an empty one for an event without attributes.
	ev.Attrs = make(map[string]string, attrs)
	var prev []byte
	for j := 0; j < attrs; j++ {
		k, err := ledger.ReadBytes(r)
		if err != nil {
			return fmt.Errorf("attr key: %w", err)
		}
		if j > 0 && bytes.Compare(prev, k) >= 0 {
			return fmt.Errorf("attr key %q out of order", k)
		}
		v, err := ledger.ReadBytes(r)
		if err != nil {
			return fmt.Errorf("attr value: %w", err)
		}
		ev.Attrs[string(k)] = string(v)
		prev = k
	}
	return nil
}
