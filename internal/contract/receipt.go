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
// transaction order.
func EncodeReceipts(recs []Receipt) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(recs)))
	var one []byte
	for i := range recs {
		one = appendReceipt(one[:0], &recs[i])
		out = ledger.AppendBytes(out, one)
	}
	return out
}

func appendReceipt(dst []byte, r *Receipt) []byte {
	dst = append(dst, r.TxID[:]...)
	if r.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, r.GasUsed)
	dst = ledger.AppendBytes(dst, r.Result)
	dst = ledger.AppendBytes(dst, []byte(r.Err))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Events)))
	for _, ev := range r.Events {
		dst = ledger.AppendBytes(dst, []byte(ev.Contract))
		dst = ledger.AppendBytes(dst, []byte(ev.Type))
		keys := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
		for _, k := range keys {
			dst = ledger.AppendBytes(dst, []byte(k))
			dst = ledger.AppendBytes(dst, []byte(ev.Attrs[k]))
		}
	}
	return dst
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
