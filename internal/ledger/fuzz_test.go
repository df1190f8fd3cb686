package ledger

import (
	"bytes"
	"testing"
)

// FuzzDecodeTx checks that arbitrary bytes never panic the transaction
// decoder and that valid round-trips are stable.
func FuzzDecodeTx(f *testing.F) {
	alice := signer("fuzz")
	tx, err := NewTx(alice, 7, "news.publish", []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tx.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		decoded, err := DecodeTx(raw)
		if err != nil {
			return // malformed input is fine; panics are not
		}
		// A successful decode must re-encode to the identical bytes.
		if !bytes.Equal(decoded.Encode(), raw) {
			t.Fatalf("re-encode mismatch for %x", raw)
		}
	})
}

// FuzzDecodeBlock checks that arbitrary bytes never panic the block
// decoder and that any successful decode round-trips byte-identically:
// Encode(Decode(raw)) == raw. With the decoder rejecting trailing bytes
// and every field length-prefixed, the canonical encoding is bijective
// over valid inputs — the property mempool dedup and block ids rely on.
func FuzzDecodeBlock(f *testing.F) {
	alice := signer("fuzz")
	tx, err := NewTx(alice, 0, "k.m", []byte("p"))
	if err != nil {
		f.Fatal(err)
	}
	blk := NewBlock(3, BlockID{1}, [32]byte{2}, testTime, alice.Address(), []*Tx{tx})
	f.Add(blk.Encode())
	f.Add(NewBlock(0, BlockID{}, [32]byte{}, testTime, alice.Address(), nil).Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 100))
	f.Fuzz(func(t *testing.T, raw []byte) {
		decoded, err := DecodeBlock(raw)
		if err != nil {
			return // malformed input is fine; panics are not
		}
		if !bytes.Equal(decoded.Encode(), raw) {
			t.Fatalf("re-encode mismatch for %x", raw)
		}
		_ = decoded.ID()
	})
}

// withCert appends cert to a block's encoding as Chain.Append stores a
// certified block: a length-prefixed trailer.
func withCert(block, cert []byte) []byte {
	w := Writer{Buf: block}
	w.Bytes(cert)
	return w.Buf
}

// FuzzDecodeRecord feeds arbitrary bytes to the block-log record decoder
// (a block, then an optional length-prefixed certificate trailer): no
// panic, no allocation beyond the input, and a record that decodes
// re-encodes to the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	alice := signer("fuzz")
	tx, err := NewTx(alice, 0, "k.m", []byte("p"))
	if err != nil {
		f.Fatal(err)
	}
	blk := NewBlock(3, BlockID{1}, [32]byte{2}, testTime, alice.Address(), []*Tx{tx})
	f.Add(blk.Encode())
	f.Add(withCert(blk.Encode(), []byte("certificate")))
	f.Add(withCert(blk.Encode(), nil))
	f.Add(append(blk.Encode(), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, cert, err := decodeRecord(raw)
		if err != nil {
			return
		}
		rec := b.Encode()
		if cert != nil {
			rec = withCert(rec, cert)
		}
		if !bytes.Equal(rec, raw) {
			t.Fatalf("re-encode mismatch for %x", raw)
		}
	})
}
