package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
	return appendHeader(make([]byte, 0, headerLen), h)
}

// headerLen is the length of a canonical header encoding.
const headerLen = 8 + len(BlockID{}) + len(merkle.Hash{})*2 + 8 + keys.AddressSize

func appendHeader(dst []byte, h *Header) []byte {
	dst = binary.BigEndian.AppendUint64(dst, h.Height)
	dst = append(dst, h.Prev[:]...)
	dst = append(dst, h.TxRoot[:]...)
	dst = append(dst, h.StateRoot[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.Time.UnixNano()))
	return append(dst, h.Proposer[:]...)
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
	out := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(headerLen))
	out = appendHeader(out, &b.Header)
	out = binary.BigEndian.AppendUint32(out, uint32(len(b.Txs)))
	for _, t := range b.Txs {
		out = AppendBytes(out, t.Encode())
	}
	return out
}

// DecodeBlock parses a block encoded by Encode.
func DecodeBlock(raw []byte) (*Block, error) {
	b, cert, err := decodeRecord(raw)
	if err == nil && cert != nil {
		return nil, fmt.Errorf("ledger: %d trailing bytes after block", 4+len(cert))
	}
	return b, err
}

// decodeRecord parses one block-log record: the block's Encode bytes,
// then, for a block decided by consensus, its certificate as a
// length-prefixed trailer (nil without one; an empty one is rejected).
func decodeRecord(raw []byte) (*Block, []byte, error) {
	r := bytes.NewReader(raw)
	hdrRaw, err := ReadBytes(r)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: decode header: %w", err)
	}
	hdr, err := decodeHeader(hdrRaw)
	if err != nil {
		return nil, nil, err
	}
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, nil, fmt.Errorf("ledger: decode tx count: %w", err)
	}
	count := binary.BigEndian.Uint32(n[:])
	b := &Block{Header: hdr}
	for i := uint32(0); i < count; i++ {
		txRaw, err := ReadBytes(r)
		if err != nil {
			return nil, nil, fmt.Errorf("ledger: decode tx %d: %w", i, err)
		}
		t, err := DecodeTx(txRaw)
		if err != nil {
			return nil, nil, fmt.Errorf("ledger: decode tx %d: %w", i, err)
		}
		b.Txs = append(b.Txs, t)
	}
	if r.Len() == 0 {
		return b, nil, nil
	}
	cert, err := ReadBytes(r)
	if err == nil && (len(cert) == 0 || r.Len() != 0) {
		err = fmt.Errorf("%d trailing bytes", r.Len())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: bytes after block: %w", err)
	}
	return b, cert, nil
}

func decodeHeader(raw []byte) (Header, error) {
	var h Header
	const want = 8 + sha256.Size + merkle.HashSize + merkle.HashSize + 8 + keys.AddressSize
	if len(raw) != want {
		return h, fmt.Errorf("ledger: header length %d, want %d", len(raw), want)
	}
	off := 0
	h.Height = binary.BigEndian.Uint64(raw[off:])
	off += 8
	copy(h.Prev[:], raw[off:])
	off += sha256.Size
	copy(h.TxRoot[:], raw[off:])
	off += merkle.HashSize
	copy(h.StateRoot[:], raw[off:])
	off += merkle.HashSize
	h.Time = time.Unix(0, int64(binary.BigEndian.Uint64(raw[off:]))).UTC()
	off += 8
	copy(h.Proposer[:], raw[off:])
	return h, nil
}
