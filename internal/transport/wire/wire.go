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
// Decoding goes through ledger.Reader, the codec ledger.DecodeBlock reads
// with too: every length claim is checked against the bytes actually
// remaining before any allocation, so a hostile frame can neither panic
// the decoder nor bait it into allocating unbounded memory.
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
// Fields are in the ledger's field codec (ledger.Writer, ledger.Reader);
// proposals, votes and certificates in consensus's layouts on it
// (consensus.WriteVote).
package wire

import (
	"errors"
	"fmt"

	"repro/internal/blobstore"
	"repro/internal/consensus"
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
//
// Version 3: a sync response carries one certificate per block.
const Version = 3

// Limits on individual fields, enforced at decode.
const (
	maxStr   = 1 << 16 // blob CIDs
	maxBytes = transport.MaxFrame
)

// Mempool relay kind: a transaction forwarded peer-to-peer so any future
// proposer can include it. The payload is a *ledger.Tx.
const KindMempoolTx = "mempool.tx"

// Decode errors, besides the codec's ledger.ErrTruncated,
// ledger.ErrOversize and ledger.ErrTrailing.
var (
	ErrVersion = errors.New("wire: unsupported codec version")
	ErrKind    = errors.New("wire: unknown message kind")
	ErrPayload = errors.New("wire: payload type does not match kind")
)

// Codec encodes and decodes transport messages. It is stateless and safe
// for concurrent use; the zero value is ready.
type Codec struct{}

// Encode serializes m's addressing and payload into one frame body.
func (Codec) Encode(m transport.Message) ([]byte, error) {
	w := &ledger.Writer{}
	w.U8(Version)
	w.Str8(m.Kind)
	w.Str8(string(m.From))
	w.Str8(string(m.To))
	if err := encodePayload(w, m.Kind, m.Payload); err != nil {
		return nil, err
	}
	if len(w.Buf) > transport.MaxFrame {
		return nil, fmt.Errorf("%w: encoded frame %d bytes", ledger.ErrOversize, len(w.Buf))
	}
	return w.Buf, nil
}

// Decode parses a frame body produced by Encode. The returned message
// carries the same concrete payload type the sender passed in, so
// handlers type-switch identically on simulated and real transports.
func (Codec) Decode(raw []byte) (transport.Message, error) {
	r := ledger.NewReader(raw)
	if v := r.U8(); r.Err() == nil && v != Version {
		return transport.Message{}, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	var m transport.Message
	m.Kind = r.Str8()
	m.From = transport.NodeID(r.Str8())
	m.To = transport.NodeID(r.Str8())
	if r.Err() != nil {
		return transport.Message{}, r.Err()
	}
	payload, err := decodePayload(r, m.Kind)
	if err != nil {
		return transport.Message{}, err
	}
	if err := r.Done(); err != nil {
		return transport.Message{}, err
	}
	m.Payload = payload
	return m, nil
}

// encodePayload dispatches on the message kind. Unknown kinds are an
// error at the sender: silently dropping them would desynchronize the
// cluster invisibly.
func encodePayload(w *ledger.Writer, kind string, payload any) error {
	switch kind {
	case consensus.KindProposal:
		p, ok := payload.(*consensus.Proposal)
		if !ok || p == nil {
			return payloadErr(kind, payload)
		}
		consensus.WriteProposal(w, p)
	case consensus.KindVote:
		v, ok := payload.(consensus.Vote)
		if !ok {
			return payloadErr(kind, payload)
		}
		consensus.WriteVote(w, &v)
	case consensus.KindCommit:
		c, ok := payload.(*consensus.Commit)
		if !ok || c == nil {
			return payloadErr(kind, payload)
		}
		consensus.WriteCommit(w, c)
	case consensus.KindSyncRequest:
		req, ok := payload.(consensus.SyncRequest)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.U64(req.Height)
	case consensus.KindSyncBlocks:
		resp, ok := payload.(*consensus.SyncResponse)
		if !ok || resp == nil || len(resp.Certs) != len(resp.Blocks) {
			return payloadErr(kind, payload)
		}
		w.U64(resp.From)
		w.U32(uint32(len(resp.Blocks)))
		for i, b := range resp.Blocks {
			if b == nil || resp.Certs[i] == nil {
				return payloadErr(kind, payload)
			}
			w.Bytes(b.Encode())
			consensus.WriteCommit(w, resp.Certs[i])
		}
	case blobstore.KindManifestReq:
		req, ok := payload.(blobstore.ManifestReq)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.U64(req.ID)
		w.Str(string(req.CID))
	case blobstore.KindManifestResp:
		resp, ok := payload.(blobstore.ManifestResp)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.U64(resp.ID)
		w.Bool(resp.Found)
		w.U64(uint64(resp.Size))
		w.U64(uint64(resp.ChunkSize))
		w.U32(uint32(len(resp.Chunks)))
		for _, h := range resp.Chunks {
			w.Raw(h[:])
		}
	case blobstore.KindChunkReq:
		req, ok := payload.(blobstore.ChunkReq)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.U64(req.ID)
		w.Raw(req.Hash[:])
	case blobstore.KindChunkResp:
		resp, ok := payload.(blobstore.ChunkResp)
		if !ok {
			return payloadErr(kind, payload)
		}
		w.U64(resp.ID)
		w.Bool(resp.Found)
		w.Bytes(resp.Data)
	case KindMempoolTx:
		tx, ok := payload.(*ledger.Tx)
		if !ok || tx == nil {
			return payloadErr(kind, payload)
		}
		w.Bytes(tx.Encode())
	default:
		return fmt.Errorf("%w: %q", ErrKind, kind)
	}
	return nil
}

func decodePayload(r *ledger.Reader, kind string) (any, error) {
	switch kind {
	case consensus.KindProposal:
		return consensus.ReadProposal(r)
	case consensus.KindVote:
		return consensus.ReadVote(r), r.Err()
	case consensus.KindCommit:
		return consensus.ReadCommit(r), r.Err()
	case consensus.KindSyncRequest:
		return consensus.SyncRequest{Height: r.U64()}, r.Err()
	case consensus.KindSyncBlocks:
		resp := &consensus.SyncResponse{From: r.U64()}
		n := r.Count(minBlockSize)
		for i := 0; i < n && r.Err() == nil; i++ {
			b, err := ledger.DecodeBlock(r.Bytes(maxBytes))
			if err != nil {
				return nil, fmt.Errorf("wire: sync block %d: %w", i, err)
			}
			resp.Blocks = append(resp.Blocks, b)
			resp.Certs = append(resp.Certs, consensus.ReadCommit(r))
		}
		return resp, r.Err()
	case blobstore.KindManifestReq:
		return blobstore.ManifestReq{ID: r.U64(), CID: blobstore.CID(r.Str(maxStr))}, r.Err()
	case blobstore.KindManifestResp:
		resp := blobstore.ManifestResp{ID: r.U64(), Found: r.Bool(), Size: int(r.U64()), ChunkSize: int(r.U64())}
		n := r.Count(len(blobstore.ChunkHash{}))
		for i := 0; i < n && r.Err() == nil; i++ {
			var h blobstore.ChunkHash
			r.Raw(h[:])
			resp.Chunks = append(resp.Chunks, h)
		}
		return resp, r.Err()
	case blobstore.KindChunkReq:
		req := blobstore.ChunkReq{ID: r.U64()}
		r.Raw(req.Hash[:])
		return req, r.Err()
	case blobstore.KindChunkResp:
		return blobstore.ChunkResp{ID: r.U64(), Found: r.Bool(), Data: r.Bytes(maxBytes)}, r.Err()
	case KindMempoolTx:
		raw := r.Bytes(maxBytes)
		if r.Err() != nil {
			return nil, r.Err()
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

// minBlockSize is a conservative lower bound on one encoded block, used
// to clamp element counts before allocating: a claimed count can never
// exceed remaining/minBlockSize for a well-formed frame.
const minBlockSize = 8

func payloadErr(kind string, payload any) error {
	return fmt.Errorf("%w: kind %q got %T", ErrPayload, kind, payload)
}
