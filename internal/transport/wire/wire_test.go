package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/transport"
)

// testBlock builds a small signed block for codec tests. Helpers panic
// on impossible failures so they can seed both tests and fuzz targets.
func testBlock(height uint64, txs int) *ledger.Block {
	kp := keys.FromSeed([]byte("wire-test-proposer"))
	var list []*ledger.Tx
	for i := 0; i < txs; i++ {
		tx, err := ledger.NewTx(kp, uint64(i), "test.kind", []byte("payload-bytes"))
		if err != nil {
			panic(err)
		}
		list = append(list, tx)
	}
	return ledger.NewBlock(height, ledger.BlockID{7}, merkle.Hash{9}, time.Unix(1700000000, 0), kp.Address(), list)
}

func testVote(vt consensus.VoteType, height uint64, round int, id ledger.BlockID, seed string) consensus.Vote {
	kp := keys.FromSeed([]byte(seed))
	v := consensus.Vote{Type: vt, Height: height, Round: round, BlockID: id, Voter: kp.Address()}
	consensus.SignVote(&v, kp)
	return v
}

// testMessages returns one message per wire kind, exercising every branch
// of the codec.
func testMessages() []transport.Message {
	kp := keys.FromSeed([]byte("wire-test-proposer"))
	block := testBlock(3, 2)
	id := block.ID()
	votes := []consensus.Vote{
		testVote(consensus.VotePrecommit, 3, 0, id, "voter-a"),
		testVote(consensus.VotePrecommit, 3, 0, id, "voter-b"),
	}
	prop := &consensus.Proposal{Height: 3, Round: 1, POLRound: 0, Block: block, Proposer: kp.Address(), POLVotes: votes}
	consensus.SignProposal(prop, kp)
	fresh := &consensus.Proposal{Height: 4, Round: 0, POLRound: -1, Block: testBlock(4, 0), Proposer: kp.Address()}
	consensus.SignProposal(fresh, kp)
	commit := &consensus.Commit{Height: 3, BlockID: id, Quorum: votes}
	certify := func(b *ledger.Block) *consensus.Commit {
		h := b.Header.Height
		return &consensus.Commit{Height: h, BlockID: b.ID(), Quorum: []consensus.Vote{
			testVote(consensus.VotePrecommit, h, 0, b.ID(), "voter-a"),
			testVote(consensus.VotePrecommit, h, 0, b.ID(), "voter-b"),
		}}
	}
	run := []*ledger.Block{testBlock(1, 1), testBlock(2, 0), block}
	tx, err := ledger.NewTx(kp, 9, "news.publish", []byte("body"))
	if err != nil {
		panic(err)
	}
	var hash blobstore.ChunkHash
	hash[0], hash[31] = 0xab, 0xcd

	from, to := transport.NodeID("p0"), transport.NodeID("p1")
	msgs := []transport.Message{
		{From: from, To: to, Kind: consensus.KindProposal, Payload: prop},
		{From: from, To: to, Kind: consensus.KindProposal, Payload: fresh},
		{From: from, To: to, Kind: consensus.KindVote, Payload: votes[0]},
		{From: from, To: to, Kind: consensus.KindCommit, Payload: commit},
		{From: from, To: to, Kind: consensus.KindSyncRequest, Payload: consensus.SyncRequest{Height: 41}},
		{From: from, To: to, Kind: consensus.KindSyncBlocks, Payload: &consensus.SyncResponse{
			From:   1,
			Blocks: run,
			Certs:  []*consensus.Commit{certify(run[0]), certify(run[1]), commit},
		}},
		// The answer to a pull at the tip: one body under its own certificate.
		{From: from, To: to, Kind: consensus.KindSyncBlocks, Payload: &consensus.SyncResponse{
			From:   3,
			Blocks: []*ledger.Block{block},
			Certs:  []*consensus.Commit{commit},
		}},
		{From: from, To: to, Kind: blobstore.KindManifestReq, Payload: blobstore.ManifestReq{ID: 5, CID: blobstore.CID("deadbeef")}},
		{From: from, To: to, Kind: blobstore.KindManifestResp, Payload: blobstore.ManifestResp{ID: 5, Found: true, Size: 100, ChunkSize: 64, Chunks: []blobstore.ChunkHash{hash, {}}}},
		{From: from, To: to, Kind: blobstore.KindManifestResp, Payload: blobstore.ManifestResp{ID: 6}},
		{From: from, To: to, Kind: blobstore.KindChunkReq, Payload: blobstore.ChunkReq{ID: 7, Hash: hash}},
		{From: from, To: to, Kind: blobstore.KindChunkResp, Payload: blobstore.ChunkResp{ID: 7, Found: true, Data: []byte("chunk-data")}},
		{From: from, To: to, Kind: KindMempoolTx, Payload: tx},
	}
	return msgs
}

// gossipFrames are frames of the three gossip kinds a removed gossip
// layer defined, laid out as that layer encoded them: an envelope
// (id, topic, hops, tagged payload) or a list of envelope ids. No
// shipped node ever sent one; the decoder must reject each as an
// unknown kind.
func gossipFrames() []struct {
	name string
	raw  []byte
} {
	frame := func(kind string, body func(w *ledger.Writer)) []byte {
		w := &ledger.Writer{}
		w.U8(Version)
		w.Str8(kind)
		w.Str8("p0")
		w.Str8("p1")
		body(w)
		return w.Buf
	}
	envelope := func(id, topic string, hops int64, tag byte, payload []byte) []byte {
		return frame("gossip", func(w *ledger.Writer) {
			w.Str(id)
			w.Str(topic)
			w.I64(hops)
			w.U8(tag)
			if payload != nil {
				w.Bytes(payload)
			}
		})
	}
	ids := func(kind string, list ...string) []byte {
		return frame(kind, func(w *ledger.Writer) {
			w.U32(uint32(len(list)))
			for _, id := range list {
				w.Str(id)
			}
		})
	}
	tx, err := ledger.NewTx(keys.FromSeed([]byte("wire-test-proposer")), 9, "news.publish", []byte("body"))
	if err != nil {
		panic(err)
	}
	return []struct {
		name string
		raw  []byte
	}{
		{"gossip envelope of bytes", envelope("e1", "news", 2, 1, []byte{1, 2, 3})},
		{"gossip envelope of text", envelope("e2", "t", 0, 2, []byte("text"))},
		{"gossip envelope of nothing", envelope("e3", "t", 0, 0, nil)},
		{"gossip envelope of a tx", envelope("e4", "tx", 1, 3, tx.Encode())},
		{"gossip envelope of a block", envelope("e5", "blk", 1, 4, testBlock(3, 2).Encode())},
		{"gossip digest", ids("gossip.digest", "a", "b", "c")},
		{"gossip pull", ids("gossip.pull", "b")},
	}
}

// TestRoundTripByteIdentity checks, for every message kind, that
// encode→decode→encode reproduces the exact same bytes and that the
// decoded payload carries the right concrete type.
func TestRoundTripByteIdentity(t *testing.T) {
	var c Codec
	for i, m := range testMessages() {
		raw, err := c.Encode(m)
		if err != nil {
			t.Fatalf("msg %d (%s): encode: %v", i, m.Kind, err)
		}
		got, err := c.Decode(raw)
		if err != nil {
			t.Fatalf("msg %d (%s): decode: %v", i, m.Kind, err)
		}
		if got.From != m.From || got.To != m.To || got.Kind != m.Kind {
			t.Fatalf("msg %d (%s): addressing mismatch: %+v", i, m.Kind, got)
		}
		if reflect.TypeOf(got.Payload) != reflect.TypeOf(m.Payload) {
			t.Fatalf("msg %d (%s): payload type %T, want %T", i, m.Kind, got.Payload, m.Payload)
		}
		raw2, err := c.Encode(got)
		if err != nil {
			t.Fatalf("msg %d (%s): re-encode: %v", i, m.Kind, err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("msg %d (%s): re-encoded bytes differ (%d vs %d bytes)", i, m.Kind, len(raw), len(raw2))
		}
	}
}

// TestRoundTripSemantic spot-checks decoded field values (byte identity
// alone would also pass for a codec that scrambled fields symmetrically).
func TestRoundTripSemantic(t *testing.T) {
	var c Codec
	block := testBlock(3, 2)
	commit := &consensus.Commit{Height: 3, BlockID: block.ID(), Quorum: []consensus.Vote{
		testVote(consensus.VotePrecommit, 3, 2, block.ID(), "voter-a"),
		testVote(consensus.VotePrecommit, 3, 2, block.ID(), "voter-b"),
		testVote(consensus.VotePrecommit, 3, 2, block.ID(), "voter-c"),
		testVote(consensus.VotePrecommit, 3, 2, block.ID(), "voter-d"),
	}}
	raw, err := c.Encode(transport.Message{From: "p1", To: "p2", Kind: consensus.KindCommit, Payload: commit})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := c.Decode(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// A certificate is votes only: a full 4-validator quorum stays far
	// below the 1 KB per height the retention and wire budgets assume,
	// however large the block it certifies.
	if len(raw) > 1024 {
		t.Fatalf("4-vote commit certificate encodes to %d bytes, want at most 1024", len(raw))
	}
	dec := got.Payload.(*consensus.Commit)
	if dec.Height != 3 || dec.BlockID != block.ID() || len(dec.Quorum) != 4 {
		t.Fatalf("commit fields lost: %+v", dec)
	}
	if dec.Quorum[0].Round != 2 || dec.Quorum[0].BlockID != block.ID() {
		t.Fatalf("quorum vote fields lost: %+v", dec.Quorum[0])
	}
	// Signatures survive, so the certificate still verifies downstream.
	if !bytes.Equal(dec.Quorum[0].Sig, commit.Quorum[0].Sig) {
		t.Fatal("vote signature did not round-trip")
	}
}

// TestDecodeRejects covers the defensive-decode contract on malformed
// inputs: wrong version, unknown kind, truncation, hostile length
// claims, trailing bytes. None may panic; all must error.
func TestDecodeRejects(t *testing.T) {
	var c Codec
	good, err := c.Encode(transport.Message{From: "a", To: "b", Kind: consensus.KindSyncRequest, Payload: consensus.SyncRequest{Height: 1}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// A frame of an earlier codec version (a full block inside the commit
	// certificate; one certificate per sync run) must fail on the version
	// byte, not be misread.
	for v := byte(1); v < Version; v++ {
		old := append([]byte{v}, good[1:]...)
		if _, err := c.Decode(old); !errors.Is(err, ErrVersion) {
			t.Fatalf("version-%d frame: want ErrVersion, got %v", v, err)
		}
	}

	cases := map[string][]byte{
		"empty":        {},
		"bad version":  append([]byte{99}, good[1:]...),
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0xff),
		"unknown kind": {Version, 3, 'z', 'z', 'z', 1, 'a', 1, 'b'},
		// consensus.vote whose sig length claims 4 GiB.
		"hostile sig length": func() []byte {
			w := &ledger.Writer{}
			w.U8(Version)
			w.Str8(consensus.KindVote)
			w.Str8("a")
			w.Str8("b")
			w.U8(1)
			w.U64(1)
			w.I64(0)
			w.Raw(make([]byte, 32+keys.AddressSize))
			w.U32(0xffffffff) // sig length claim
			return w.Buf
		}(),
		// commit certificate whose vote count claims 1<<31 elements.
		"hostile vote count": func() []byte {
			w := &ledger.Writer{}
			w.U8(Version)
			w.Str8(consensus.KindCommit)
			w.Str8("a")
			w.Str8("b")
			w.U64(7)
			w.Raw(make([]byte, 32))
			w.U32(1 << 31)
			return w.Buf
		}(),
		// syncblocks whose block count claims 1<<31 elements.
		"hostile count": func() []byte {
			w := &ledger.Writer{}
			w.U8(Version)
			w.Str8(consensus.KindSyncBlocks)
			w.Str8("a")
			w.Str8("b")
			w.U64(0)
			w.U32(1 << 31)
			return w.Buf
		}(),
	}
	for _, g := range gossipFrames() {
		cases[g.name] = g.raw
	}
	for name, raw := range cases {
		if _, err := c.Decode(raw); err == nil {
			t.Errorf("%s: decode accepted malformed frame", name)
		}
	}
	for _, g := range gossipFrames() {
		if _, err := c.Decode(g.raw); !errors.Is(err, ErrKind) {
			t.Errorf("%s: want ErrKind, got %v", g.name, err)
		}
	}
}

// TestEncodeRejects checks that kind/payload mismatches fail at the
// sender instead of producing garbage frames.
func TestEncodeRejects(t *testing.T) {
	var c Codec
	bad := []transport.Message{
		{Kind: consensus.KindProposal, Payload: "not a proposal"},
		{Kind: consensus.KindProposal, Payload: (*consensus.Proposal)(nil)},
		{Kind: consensus.KindSyncBlocks, Payload: &consensus.SyncResponse{Blocks: []*ledger.Block{testBlock(1, 0)}}},
		{Kind: "no.such.kind", Payload: 1},
		{Kind: "gossip.digest", Payload: []string{"a"}},
	}
	for i, m := range bad {
		if _, err := c.Encode(m); err == nil {
			t.Errorf("case %d: encode accepted %q with %T", i, m.Kind, m.Payload)
		}
	}
}

// FuzzWireDecode feeds arbitrary frames to the decoder: it must never
// panic, and every length claim must be validated before allocation
// (over-allocation would OOM the fuzzer long before any assertion).
// Frames that decode successfully must re-encode to the identical bytes.
func FuzzWireDecode(f *testing.F) {
	var c Codec
	for _, m := range testMessages() {
		raw, err := c.Encode(m)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(raw)
		if m.Kind == consensus.KindCommit {
			// Under the previous version byte the frame must stay rejected.
			f.Add(append([]byte{Version - 1}, raw[1:]...))
		}
	}
	for _, g := range gossipFrames() {
		f.Add(g.raw)
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := c.Decode(raw)
		if err != nil {
			return
		}
		raw2, err := c.Encode(m)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("decode/encode not byte-identical: %d vs %d bytes", len(raw), len(raw2))
		}
	})
}
