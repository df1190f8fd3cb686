package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/keys"
	"repro/internal/merkle"
)

// Errors returned by block validation.
var (
	// ErrBlockBadTxRoot indicates a header tx root not matching the body.
	ErrBlockBadTxRoot = errors.New("ledger: block tx root mismatch")
	// ErrBlockBadTx indicates an invalid transaction inside a block.
	ErrBlockBadTx = errors.New("ledger: invalid transaction in block")
)

// BlockID is the hash of a block header.
type BlockID [sha256.Size]byte

// String renders the id as hex.
func (id BlockID) String() string { return hex.EncodeToString(id[:]) }

// Short returns an abbreviated display form.
func (id BlockID) Short() string { return hex.EncodeToString(id[:4]) }

// IsZero reports whether the id is all zeroes (the genesis parent).
func (id BlockID) IsZero() bool { return id == BlockID{} }

// Header carries the chain-commitment fields of a block.
type Header struct {
	Height    uint64       `json:"height"`
	Prev      BlockID      `json:"prev"`
	TxRoot    merkle.Hash  `json:"txRoot"`
	StateRoot merkle.Hash  `json:"stateRoot"`
	Time      time.Time    `json:"time"`
	Proposer  keys.Address `json:"proposer"`
}

// Block is a header plus its transaction body.
type Block struct {
	Header Header `json:"header"`
	Txs    []*Tx  `json:"txs"`
}

// encodeHeader produces the canonical header bytes hashed into the BlockID.
func encodeHeader(h *Header) []byte {
	w := Writer{Buf: make([]byte, 0, headerLen)}
	writeHeader(&w, h)
	return w.Buf
}

// headerLen is the length of a canonical header encoding.
const headerLen = 8 + len(BlockID{}) + len(merkle.Hash{})*2 + 8 + keys.AddressSize

func writeHeader(w *Writer, h *Header) {
	w.U64(h.Height)
	w.Raw(h.Prev[:])
	w.Raw(h.TxRoot[:])
	w.Raw(h.StateRoot[:])
	w.I64(h.Time.UnixNano())
	w.Raw(h.Proposer[:])
}

// ID returns the block id (hash of the canonical header encoding).
func (b *Block) ID() BlockID {
	var id BlockID
	sum := sha256.Sum256(encodeHeader(&b.Header))
	copy(id[:], sum[:])
	return id
}

// TxRoot computes the Merkle root over the block's transactions.
func TxRoot(txs []*Tx) merkle.Hash {
	leaves := make([][]byte, len(txs))
	for i, t := range txs {
		leaves[i] = t.Encode()
	}
	return merkle.Root(leaves)
}

// NewBlock assembles a block at the given height, computing the tx root.
func NewBlock(height uint64, prev BlockID, stateRoot merkle.Hash, at time.Time, proposer keys.Address, txs []*Tx) *Block {
	cp := make([]*Tx, len(txs))
	copy(cp, txs)
	return &Block{
		Header: Header{
			Height:    height,
			Prev:      prev,
			TxRoot:    TxRoot(cp),
			StateRoot: stateRoot,
			Time:      at,
			Proposer:  proposer,
		},
		Txs: cp,
	}
}

// ValidateBody checks internal consistency: tx root and per-tx validity.
// Chain linkage (height, prev) is checked by Chain.Append.
func (b *Block) ValidateBody() error {
	if got := TxRoot(b.Txs); got != b.Header.TxRoot {
		return fmt.Errorf("%w: header %s body %s", ErrBlockBadTxRoot, b.Header.TxRoot.Short(), got.Short())
	}
	for i, t := range b.Txs {
		if err := t.Verify(); err != nil {
			return fmt.Errorf("%w: tx %d: %v", ErrBlockBadTx, i, err)
		}
	}
	return nil
}

// Encode serializes the block (header + txs) canonically, into one
// buffer sized from the transactions' memoized encodings.
func (b *Block) Encode() []byte {
	size := 4 + headerLen + 4
	for _, t := range b.Txs {
		size += 4 + len(t.Encode())
	}
	w := Writer{Buf: make([]byte, 0, size)}
	w.U32(uint32(headerLen))
	writeHeader(&w, &b.Header)
	w.U32(uint32(len(b.Txs)))
	for _, t := range b.Txs {
		w.Bytes(t.Encode())
	}
	return w.Buf
}

// DecodeBlock parses a block encoded by Encode.
func DecodeBlock(raw []byte) (*Block, error) {
	b, cert, err := decodeRecord(raw)
	if err == nil && cert != nil {
		return nil, fmt.Errorf("ledger: %d trailing bytes after block", 4+len(cert))
	}
	return b, err
}

// minTxBytes is the least a transaction occupies in a block, its length
// prefix included: sender, nonce and four empty fields.
const minTxBytes = 4 + keys.AddressSize + 8 + 4*4

// decodeRecord parses one block-log record: the block's Encode bytes,
// then, for a block decided by consensus, its certificate as a
// length-prefixed trailer (nil without one; an empty one is rejected).
func decodeRecord(raw []byte) (*Block, []byte, error) {
	r := NewReader(raw)
	if n := int(r.U32()); r.Err() == nil && n != headerLen {
		r.Fail(fmt.Errorf("ledger: header length %d, want %d", n, headerLen))
	}
	b := &Block{Header: readHeader(r)}
	end := 4 + headerLen + 4 // the block's bytes, as far as they are read
	if n := r.Count(minTxBytes); n > 0 {
		b.Txs = make([]*Tx, n)
	}
	for i := 0; i < len(b.Txs) && r.Err() == nil; i++ {
		txRaw := r.View(len(raw))
		end += 4 + len(txRaw)
		t, err := DecodeTx(txRaw)
		if err != nil {
			r.Fail(fmt.Errorf("ledger: decode tx %d: %w", i, err))
		}
		b.Txs[i] = t
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("ledger: decode block: %w", err)
	}
	if end == len(raw) {
		return b, nil, nil
	}
	cert := r.Bytes(len(raw))
	if r.Err() == nil && len(cert) == 0 {
		r.Fail(errors.New("empty certificate"))
	}
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("ledger: bytes after block: %w", err)
	}
	return b, cert, nil
}

// readHeader reads the fields writeHeader writes.
func readHeader(r *Reader) Header {
	var h Header
	h.Height = r.U64()
	r.Raw(h.Prev[:])
	r.Raw(h.TxRoot[:])
	r.Raw(h.StateRoot[:])
	h.Time = time.Unix(0, int64(r.U64())).UTC()
	r.Raw(h.Proposer[:])
	return h
}
