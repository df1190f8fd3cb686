// Package ledger implements the transaction, block and chain types of the
// trusting-news blockchain, plus a nonce-ordered mempool.
//
// Every interaction with the platform — publishing an article, relaying or
// modifying a news item, casting a ranking vote, promoting a fact — is a
// signed Tx recorded in a block, which is what gives the paper's §IV
// property: "each record is signed and easy to track. Can't deny that
// he/she has created this news."
package ledger

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/keys"
)

// Errors returned by transaction validation.
var (
	// ErrTxUnsigned indicates a transaction without a signature.
	ErrTxUnsigned = errors.New("ledger: unsigned transaction")
	// ErrTxBadSignature indicates a signature that does not verify.
	ErrTxBadSignature = errors.New("ledger: bad transaction signature")
	// ErrTxSenderMismatch indicates a public key not matching the sender.
	ErrTxSenderMismatch = errors.New("ledger: sender does not match public key")
	// ErrTxEmptyKind indicates a transaction without a kind.
	ErrTxEmptyKind = errors.New("ledger: empty transaction kind")
	// ErrTxPayloadTooLarge indicates a payload over the allowed size.
	// Article bodies belong in the off-chain blob store (internal/blobstore),
	// referenced by CID — not inline in transactions.
	ErrTxPayloadTooLarge = errors.New("ledger: transaction payload too large")
)

// MaxTxPayloadBytes is the consensus-level hard cap on a transaction
// payload, enforced by Verify and therefore by block validation on every
// node. Mempools admit far less (MaxMempoolPayloadBytes).
const MaxTxPayloadBytes = 1 << 20

// TxID is the content hash of a transaction.
type TxID [sha256.Size]byte

// String renders the id as hex.
func (id TxID) String() string { return hex.EncodeToString(id[:]) }

// Short returns an abbreviated display form.
func (id TxID) Short() string { return hex.EncodeToString(id[:4]) }

// Tx is a signed platform transaction. Kind routes the payload to a smart
// contract (e.g. "news.publish", "rank.vote", "fact.promote"); Payload is
// the contract-specific encoding.
type Tx struct {
	Sender  keys.Address      `json:"sender"`
	Nonce   uint64            `json:"nonce"`
	Kind    string            `json:"kind"`
	Payload []byte            `json:"payload"`
	PubKey  ed25519.PublicKey `json:"pubKey"`
	Sig     []byte            `json:"sig"`

	// memo caches the derived byte forms of the transaction — canonical
	// encoding and content hash — so hot paths (TxRoot, block validation,
	// wire encoding) serialize each tx once instead of 3-5 times. Sign
	// invalidates it; Verify and the verification pipeline's structural
	// re-check never consult it, so a field mutated after the memo was
	// built can never smuggle stale bytes past a signature or cache check.
	memo atomic.Pointer[txMemo]
}

// txMemo is one immutable snapshot of a transaction's derived bytes. The
// signing bytes are a prefix of encoded, so one buffer holds both.
type txMemo struct {
	encoded []byte
	id      TxID
}

// memoized returns the cached derived bytes, computing them once on first
// use. Concurrent first calls may compute twice; both results are
// identical and either may win the store.
func (t *Tx) memoized() *txMemo {
	if m := t.memo.Load(); m != nil {
		return m
	}
	enc := t.appendSigning(make([]byte, 0, t.signingLen()+8+len(t.PubKey)+len(t.Sig)))
	signing := enc[:len(enc):len(enc)]
	enc = AppendBytes(enc, t.PubKey)
	enc = AppendBytes(enc, t.Sig)
	m := &txMemo{encoded: enc, id: hashTx(signing, t.PubKey, t.Sig)}
	t.memo.Store(m)
	return m
}

// hashTx computes the content hash over the canonical signed surface.
func hashTx(signing, pub, sig []byte) TxID {
	h := sha256.New()
	h.Write(signing)
	h.Write(pub)
	h.Write(sig)
	var id TxID
	h.Sum(id[:0])
	return id
}

// AppendBytes appends b to dst behind a 4-byte big-endian length, the
// field framing of every canonical encoding in this repository's ledger
// (transactions, blocks, receipts). ReadBytes is its inverse.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// signingBytes produces the canonical byte encoding covered by the
// signature: length-prefixed fields in fixed order. This is deliberately
// hand-rolled rather than gob/json so the encoding is stable and canonical.
// It always serializes the current field values — memoization lives in
// memoized(), and verification paths call this directly so tampered fields
// are always re-serialized before any signature or cache decision.
func (t *Tx) signingBytes() []byte {
	return t.appendSigning(make([]byte, 0, t.signingLen()))
}

func (t *Tx) signingLen() int {
	return len(t.Sender) + 8 + 4 + len(t.Kind) + 4 + len(t.Payload)
}

func (t *Tx) appendSigning(dst []byte) []byte {
	dst = append(dst, t.Sender[:]...)
	dst = binary.BigEndian.AppendUint64(dst, t.Nonce)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Kind)))
	dst = append(dst, t.Kind...)
	return AppendBytes(dst, t.Payload)
}

// ReadBytes reads one AppendBytes field. The length is checked against
// what r still holds before anything is allocated.
func ReadBytes(r *bytes.Reader) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, fmt.Errorf("ledger: short length prefix: %w", err)
	}
	// Compare in uint64 so a hostile 4 GiB length prefix can neither wrap a
	// 32-bit int nor drive the allocation below: the allocation is clamped
	// by the reader's actual remaining bytes before make runs.
	size := binary.BigEndian.Uint32(n[:])
	if uint64(size) > uint64(r.Len()) {
		return nil, fmt.Errorf("ledger: truncated field (want %d, have %d)", size, r.Len())
	}
	out := make([]byte, int(size))
	if size == 0 {
		return out, nil
	}
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("ledger: short field: %w", err)
	}
	return out, nil
}

// ID returns the content hash of the transaction, covering the signature so
// two differently-signed copies of the same intent are distinct. The hash is
// memoized; mutating fields after the first call returns the stale id (the
// verification pipeline always re-hashes, so a stale id cannot pass
// validation — see Verifier.VerifyTx).
func (t *Tx) ID() TxID {
	return t.memoized().id
}

// Sign populates PubKey and Sig using the key pair, which must match Sender.
// It invalidates any memoized derived bytes first.
func (t *Tx) Sign(kp *keys.KeyPair) error {
	if kp.Address() != t.Sender {
		return ErrTxSenderMismatch
	}
	t.memo.Store(nil)
	t.PubKey = kp.Public()
	t.Sig = kp.Sign(t.signingBytes())
	return nil
}

// Verify checks structural validity and the signature/sender binding. It
// never consults memoized bytes, so it remains sound against post-hoc field
// mutation. This is the serial baseline; block validation goes through
// Verifier.VerifyTx, which can skip the ed25519 operation via the
// verified-signature cache.
func (t *Tx) Verify() error {
	return (*Verifier)(nil).VerifyTx(t)
}

// Encode serializes the transaction to a canonical byte string. The result
// is memoized and shared between callers: treat it as read-only.
func (t *Tx) Encode() []byte {
	return t.memoized().encoded
}

// DecodeTx parses a transaction encoded by Encode.
func DecodeTx(raw []byte) (*Tx, error) {
	r := bytes.NewReader(raw)
	var t Tx
	if _, err := io.ReadFull(r, t.Sender[:]); err != nil {
		return nil, fmt.Errorf("ledger: decode sender: %w", err)
	}
	var n [8]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, fmt.Errorf("ledger: decode nonce: %w", err)
	}
	t.Nonce = binary.BigEndian.Uint64(n[:])
	kind, err := ReadBytes(r)
	if err != nil {
		return nil, fmt.Errorf("ledger: decode kind: %w", err)
	}
	t.Kind = string(kind)
	if t.Payload, err = ReadBytes(r); err != nil {
		return nil, fmt.Errorf("ledger: decode payload: %w", err)
	}
	pub, err := ReadBytes(r)
	if err != nil {
		return nil, fmt.Errorf("ledger: decode pubkey: %w", err)
	}
	t.PubKey = ed25519.PublicKey(pub)
	if t.Sig, err = ReadBytes(r); err != nil {
		return nil, fmt.Errorf("ledger: decode sig: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ledger: %d trailing bytes after transaction", r.Len())
	}
	return &t, nil
}

// NewTx builds and signs a transaction in one step.
func NewTx(kp *keys.KeyPair, nonce uint64, kind string, payload []byte) (*Tx, error) {
	t := &Tx{Sender: kp.Address(), Nonce: nonce, Kind: kind, Payload: payload}
	if err := t.Sign(kp); err != nil {
		return nil, err
	}
	return t, nil
}
