// Package wire is the deterministic byte codec for every message the
// platform sends over a real transport: consensus traffic (proposals,
// votes, commit certificates, block sync), blobstore retrieval, and
// mempool transaction relay. The simulated network passes Go values by reference, so it never
// touches this package; the TCP transport round-trips every payload
// through it, decoding into the same concrete types the handlers
// type-switch on, which is what lets one protocol stack run on both
// substrates.
//
// Encoding is explicit per message kind — no reflection, no gob — so the
// format is stable, auditable, and versioned by a single leading byte.
// Decoding is defensive in the style of ledger.DecodeBlock: every length
// claim is checked against the bytes actually remaining before any
// allocation, so a hostile frame can neither panic the decoder nor bait
// it into allocating unbounded memory.
//
// Frame body layout (the TCP framing's 4-byte length prefix is outside
// this package; see internal/transport/tcp):
//
//	version  u8         (Version)
//	kind     str8       (message kind, ≤255 bytes)
//	from     str8       (sender node id)
//	to       str8       (recipient node id)
//	payload  kind-specific
//
// Integers are big-endian; str8 is a u8 length followed by bytes;
// variable byte fields are a u32 length followed by bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/blobstore"
	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/transport"
)

// Version is the codec version carried in every frame body. A node
// receiving a different version drops the frame (and the connection), so
// mixed-version clusters fail loudly instead of misinterpreting bytes.
//
// Version 2: a commit certificate carries the decided block's id instead
// of its body, and a sync response's blocks run up to and including the
// certified one.
const Version = 2

// MaxFrame bounds the size of one encoded message body. The TCP framing
// layer refuses to read (or write) frames beyond it, so a hostile 4-byte
// length prefix cannot demand a multi-gigabyte allocation.
const MaxFrame = 1 << 22 // 4 MiB: a full block of max-size txs fits

// Limits on individual fields, enforced at decode.
const (
	maxStr8  = 255     // node ids, message kinds
	maxStr   = 1 << 16 // blob CIDs
	maxSig   = 256     // ed25519 signatures are 64 bytes; leave headroom
	maxBytes = MaxFrame
)

// Mempool relay kind: a transaction forwarded peer-to-peer so any future
// proposer can include it. The payload is a *ledger.Tx.
const KindMempoolTx = "mempool.tx"

// Decode errors.
var (
	ErrVersion   = errors.New("wire: unsupported codec version")
	ErrTruncated = errors.New("wire: truncated frame")
	ErrOversize  = errors.New("wire: length claim exceeds limits")
	ErrKind      = errors.New("wire: unknown message kind")
	ErrPayload   = errors.New("wire: payload type does not match kind")
	ErrTrailing  = errors.New("wire: trailing bytes after payload")
)

// Codec encodes and decodes transport messages. It is stateless and safe
// for concurrent use; the zero value is ready.
type Codec struct{}

// Encode serializes m's addressing and payload into one frame body.
func (Codec) Encode(m transport.Message) ([]byte, error) {
	w := &writer{}
	w.u8(Version)
	w.str8(m.Kind)
	w.str8(string(m.From))
	w.str8(string(m.To))
	if err := encodePayload(w, m.Kind, m.Payload); err != nil {
		return nil, err
	}
	if len(w.buf) > MaxFrame {
		return nil, fmt.Errorf("%w: encoded frame %d bytes", ErrOversize, len(w.buf))
	}
	return w.buf, nil
}

// Decode parses a frame body produced by Encode. The returned message
// carries the same concrete payload type the sender passed in, so
// handlers type-switch identically on simulated and real transports.
func (Codec) Decode(raw []byte) (transport.Message, error) {
	r := &reader{buf: raw}
	if v := r.u8(); r.err == nil && v != Version {
		return transport.Message{}, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	var m transport.Message
	m.Kind = r.str8()
	m.From = transport.NodeID(r.str8())
	m.To = transport.NodeID(r.str8())
	if r.err != nil {
		return transport.Message{}, r.err
	}
	payload, err := decodePayload(r, m.Kind)
	if err != nil {
		return transport.Message{}, err
	}
	if r.err != nil {
		return transport.Message{}, r.err
	}
	if r.off != len(r.buf) {
		return transport.Message{}, fmt.Errorf("%w: %d of %d consumed", ErrTrailing, r.off, len(r.buf))
	}
	m.Payload = payload
	return m, nil
}

// encodePayload dispatches on the message kind. Unknown kinds are an
// error at the sender: silently dropping them would desynchronize the
// cluster invisibly.
func encodePayload(w *writer, kind string, payload any) error {
	switch kind {
	case consensus.KindProposal:
		p, ok := payload.(*consensus.Proposal)
		if !ok || p == nil {
			return payloadErr(kind, payload)
		}
		encodeProposal(w, p)
	case consensus.KindVote:
		v, ok := payload.(consensus.Vote)
		if !ok {
			return payloadErr(kind, payload)
		}
		encodeVote(w, &v)
	case consensus.KindCommit:
		c, ok := payload.(*consensus.Commit)
		if !ok || c == nil {
			return payloadErr(kind, payload)
		}
		encodeCommit(w, c)
	case consensus.KindSyncRequest:
		req, ok := payload.(consensus.SyncRequest)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.u64(req.Height)
	case consensus.KindSyncBlocks:
		resp, ok := payload.(*consensus.SyncResponse)
		if !ok || resp == nil {
			return payloadErr(kind, payload)
		}
		w.u64(resp.From)
		w.u32(uint32(len(resp.Blocks)))
		for _, b := range resp.Blocks {
			if b == nil {
				return payloadErr(kind, payload)
			}
			w.bytes(b.Encode())
		}
		if resp.Cert == nil {
			return payloadErr(kind, payload)
		}
		encodeCommit(w, resp.Cert)
	case blobstore.KindManifestReq:
		req, ok := payload.(blobstore.ManifestReq)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.u64(req.ID)
		w.str(string(req.CID))
	case blobstore.KindManifestResp:
		resp, ok := payload.(blobstore.ManifestResp)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.u64(resp.ID)
		w.bool(resp.Found)
		w.u64(uint64(resp.Size))
		w.u64(uint64(resp.ChunkSize))
		w.u32(uint32(len(resp.Chunks)))
		for _, h := range resp.Chunks {
			w.raw(h[:])
		}
	case blobstore.KindChunkReq:
		req, ok := payload.(blobstore.ChunkReq)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.u64(req.ID)
		w.raw(req.Hash[:])
	case blobstore.KindChunkResp:
		resp, ok := payload.(blobstore.ChunkResp)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.u64(resp.ID)
		w.bool(resp.Found)
		w.bytes(resp.Data)
	case KindMempoolTx:
		tx, ok := payload.(*ledger.Tx)
		if !ok || tx == nil {
			return payloadErr(kind, payload)
		}
		w.bytes(tx.Encode())
	default:
		return fmt.Errorf("%w: %q", ErrKind, kind)
	}
	return nil
}

func decodePayload(r *reader, kind string) (any, error) {
	switch kind {
	case consensus.KindProposal:
		return decodeProposal(r)
	case consensus.KindVote:
		v := decodeVote(r)
		return v, r.err
	case consensus.KindCommit:
		return decodeCommit(r)
	case consensus.KindSyncRequest:
		return consensus.SyncRequest{Height: r.u64()}, r.err
	case consensus.KindSyncBlocks:
		resp := &consensus.SyncResponse{From: r.u64()}
		n := r.count(minBlockSize)
		for i := 0; i < n && r.err == nil; i++ {
			b, err := ledger.DecodeBlock(r.bytes(maxBytes))
			if err != nil {
				return nil, fmt.Errorf("wire: sync block %d: %w", i, err)
			}
			resp.Blocks = append(resp.Blocks, b)
		}
		if r.err != nil {
			return nil, r.err
		}
		cert, err := decodeCommit(r)
		if err != nil {
			return nil, err
		}
		resp.Cert = cert
		return resp, nil
	case blobstore.KindManifestReq:
		return blobstore.ManifestReq{ID: r.u64(), CID: blobstore.CID(r.str(maxStr))}, r.err
	case blobstore.KindManifestResp:
		resp := blobstore.ManifestResp{ID: r.u64(), Found: r.bool(), Size: int(r.u64()), ChunkSize: int(r.u64())}
		n := r.count(len(blobstore.ChunkHash{}))
		for i := 0; i < n && r.err == nil; i++ {
			var h blobstore.ChunkHash
			r.raw(h[:])
			resp.Chunks = append(resp.Chunks, h)
		}
		return resp, r.err
	case blobstore.KindChunkReq:
		req := blobstore.ChunkReq{ID: r.u64()}
		r.raw(req.Hash[:])
		return req, r.err
	case blobstore.KindChunkResp:
		return blobstore.ChunkResp{ID: r.u64(), Found: r.bool(), Data: r.bytes(maxBytes)}, r.err
	case KindMempoolTx:
		raw := r.bytes(maxBytes)
		if r.err != nil {
			return nil, r.err
		}
		tx, err := ledger.DecodeTx(raw)
		if err != nil {
			return nil, fmt.Errorf("wire: mempool tx: %w", err)
		}
		return tx, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrKind, kind)
	}
}

// minBlockSize and minVoteSize are conservative lower bounds on one
// encoded element, used to clamp element counts before allocating: a
// claimed count can never exceed remaining/minSize for a well-formed
// frame.
const (
	minBlockSize = 8
	minVoteSize  = 1 + 8 + 8 + 32 + keys.AddressSize + 4
)

func encodeProposal(w *writer, p *consensus.Proposal) {
	w.u64(p.Height)
	w.i64(int64(p.Round))
	w.i64(int64(p.POLRound))
	w.bytes(p.Block.Encode())
	w.raw(p.Proposer[:])
	w.bytes(p.Sig)
	w.u32(uint32(len(p.POLVotes)))
	for i := range p.POLVotes {
		encodeVote(w, &p.POLVotes[i])
	}
}

func decodeProposal(r *reader) (*consensus.Proposal, error) {
	p := &consensus.Proposal{Height: r.u64(), Round: r.round(), POLRound: r.round()}
	raw := r.bytes(maxBytes)
	if r.err != nil {
		return nil, r.err
	}
	b, err := ledger.DecodeBlock(raw)
	if err != nil {
		return nil, fmt.Errorf("wire: proposal block: %w", err)
	}
	p.Block = b
	r.raw(p.Proposer[:])
	p.Sig = r.bytes(maxSig)
	n := r.count(minVoteSize)
	for i := 0; i < n && r.err == nil; i++ {
		p.POLVotes = append(p.POLVotes, decodeVote(r))
	}
	return p, r.err
}

func encodeVote(w *writer, v *consensus.Vote) {
	w.u8(byte(v.Type))
	w.u64(v.Height)
	w.i64(int64(v.Round))
	w.raw(v.BlockID[:])
	w.raw(v.Voter[:])
	w.bytes(v.Sig)
}

func decodeVote(r *reader) consensus.Vote {
	v := consensus.Vote{Type: consensus.VoteType(r.u8()), Height: r.u64(), Round: r.round()}
	r.raw(v.BlockID[:])
	r.raw(v.Voter[:])
	v.Sig = r.bytes(maxSig)
	return v
}

func encodeCommit(w *writer, c *consensus.Commit) {
	w.u64(c.Height)
	w.raw(c.BlockID[:])
	w.u32(uint32(len(c.Quorum)))
	for i := range c.Quorum {
		encodeVote(w, &c.Quorum[i])
	}
}

func decodeCommit(r *reader) (*consensus.Commit, error) {
	c := &consensus.Commit{Height: r.u64()}
	r.raw(c.BlockID[:])
	n := r.count(minVoteSize)
	for i := 0; i < n && r.err == nil; i++ {
		c.Quorum = append(c.Quorum, decodeVote(r))
	}
	return c, r.err
}

func payloadErr(kind string, payload any) error {
	return fmt.Errorf("%w: kind %q got %T", ErrPayload, kind, payload)
}

// writer appends big-endian primitives to a growing buffer. Encoding
// cannot fail mid-stream; size violations are checked once at the end.
type writer struct {
	buf []byte
}

func (w *writer) u8(v byte) { w.buf = append(w.buf, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.raw(b)
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) str8(s string) {
	if len(s) > maxStr8 {
		s = s[:maxStr8]
	}
	w.u8(byte(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes big-endian primitives from a byte slice, latching the
// first error. Every length claim is validated against the bytes
// actually remaining before any allocation — the hostile-input contract
// FuzzWireDecode exercises.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// bool accepts only the two bytes the writer produces, so that every
// frame that decodes re-encodes byte-identically.
func (r *reader) bool() bool {
	b := r.u8()
	if b > 1 {
		r.fail(fmt.Errorf("wire: bool byte %#x", b))
	}
	return b == 1
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// round decodes a consensus round number, rejecting values outside the
// plausible range (-1 is the POL sentinel; rounds are small ints).
func (r *reader) round() int {
	v := r.i64()
	if r.err == nil && (v < -1 || v > 1<<31) {
		r.fail(fmt.Errorf("%w: round %d", ErrOversize, v))
		return 0
	}
	return int(v)
}

// bytes reads a u32-length-prefixed byte field. The claim is checked
// against both the caller's max and the bytes remaining, so a hostile
// prefix cannot trigger an over-allocation.
func (r *reader) bytes(max int) []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > max {
		r.fail(fmt.Errorf("%w: field %d > max %d", ErrOversize, n, max))
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (r *reader) str(max int) string {
	return string(r.bytes(max))
}

func (r *reader) str8() string {
	n := int(r.u8())
	b := r.take(n)
	return string(b)
}

// raw fills a fixed-size field in place.
func (r *reader) raw(dst []byte) {
	b := r.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// count reads a u32 element count and clamps it so that count*minSize
// cannot exceed the bytes remaining — the guard that keeps a hostile
// count from pre-allocating unbounded slices.
func (r *reader) count(minSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if n < 0 || n*minSize > len(r.buf)-r.off {
		r.fail(fmt.Errorf("%w: count %d (min element %dB, %dB left)", ErrOversize, n, minSize, len(r.buf)-r.off))
		return 0
	}
	return n
}
