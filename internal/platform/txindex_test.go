package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/contract"
	"repro/internal/ledger"
	"repro/internal/light"
	"repro/internal/store"
)

// txAnswers is what a node says about every transaction on its chain.
type txAnswers struct {
	receipts map[ledger.TxID][]byte
	locs     map[ledger.TxID]ledger.TxLocation
	proofs   map[ledger.TxID]light.Proof
	bodies   map[string]string // CID -> body
}

// answersOf collects Receipt, FindTx and light.Prove for every committed
// transaction, and every off-chain body the graph cites.
func answersOf(t *testing.T, p *Platform) txAnswers {
	t.Helper()
	a := txAnswers{
		receipts: make(map[ledger.TxID][]byte),
		locs:     make(map[ledger.TxID]ledger.TxLocation),
		proofs:   make(map[ledger.TxID]light.Proof),
		bodies:   make(map[string]string),
	}
	if err := p.Chain().Walk(0, func(b *ledger.Block) bool {
		for _, tx := range b.Txs {
			rec, ok := p.Receipt(tx.ID())
			if !ok {
				t.Fatalf("no receipt for committed tx %s", tx.ID().Short())
			}
			a.receipts[tx.ID()] = contract.EncodeReceipts([]contract.Receipt{rec})
			_, loc, err := p.Chain().FindTx(tx.ID())
			if err != nil {
				t.Fatal(err)
			}
			a.locs[tx.ID()] = loc
			if a.proofs[tx.ID()], err = light.Prove(p.Chain(), tx.ID()); err != nil {
				t.Fatal(err)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	items := committedItems(t, p)
	for _, it := range items {
		if it.CID != "" {
			body, err := p.Blobs().GetString(blobstore.CID(it.CID))
			if err != nil {
				t.Fatalf("body of %s: %v", it.ID, err)
			}
			a.bodies[it.CID] = body
		}
	}
	return a
}

func (a txAnswers) mustEqual(t *testing.T, b txAnswers) {
	t.Helper()
	if len(a.receipts) != len(b.receipts) || len(a.bodies) != len(b.bodies) {
		t.Fatalf("%d receipts and %d bodies, want %d and %d", len(b.receipts), len(b.bodies), len(a.receipts), len(a.bodies))
	}
	for id, rec := range a.receipts {
		if !bytes.Equal(b.receipts[id], rec) || b.locs[id] != a.locs[id] || !reflect.DeepEqual(b.proofs[id], a.proofs[id]) {
			t.Fatalf("tx %s answered differently across the restart", id.Short())
		}
	}
	for cid, body := range a.bodies {
		if b.bodies[cid] != body {
			t.Fatalf("body %s changed across the restart", cid[:8])
		}
	}
}

// unknownIDs are transaction ids no chain holds.
func unknownIDs(n int) []ledger.TxID {
	out := make([]ledger.TxID, n)
	for i := range out {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		out[i] = sha256.Sum256(append([]byte("never committed"), b[:]...))
	}
	return out
}

// copyDir copies a flat data directory and its blobs/ tree.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRepairsTxIndexLog damages txindex.log of a checkpointed data
// directory the ways a crash, a disk or an older build can, and checks that
// the node opens on the checkpoint, rebuilds what the index log lacks from
// chain.log (only then), answers Receipt, FindTx and light.Prove for every
// committed transaction as before the restart and for none of 1 000
// unknown ids, and does not repair again on the next open.
func TestOpenRepairsTxIndexLog(t *testing.T) {
	// A template directory: items with off-chain bodies, then enough mints
	// in 64-tx blocks for a sealed segment and a tail, a checkpoint, and a
	// few blocks above it.
	tmpl := t.TempDir()
	cfg := DefaultConfig()
	cfg.MaxTxsPerBlock = 64
	p, closeFn, err := Open(tmpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 4)
	mintBlocks(t, p, 4400)
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	ckptHeight := p.CheckpointHeight()
	mintBlocks(t, p, 200)
	st := p.Chain().TxIndexStats()
	if st.Sealed < 4096 || st.Memory == 0 {
		t.Fatalf("template index %+v, want a sealed segment and a tail", st)
	}
	want := answersOf(t, p)
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		damage      func(t *testing.T, dir string)
		wantRebuilt bool
	}{
		{name: "intact", damage: func(*testing.T, string) {}},
		{name: "missing", wantRebuilt: true, damage: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, txIndexLogName)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn last record", wantRebuilt: true, damage: func(t *testing.T, dir string) {
			path := filepath.Join(dir, txIndexLogName)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-9); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "flipped byte", wantRebuilt: true, damage: func(t *testing.T, dir string) {
			path := filepath.Join(dir, txIndexLogName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "more segments than the chain covers", damage: func(t *testing.T, dir string) {
			// The last segment again: it starts where the chain's segments
			// end, so it covers no block of this chain.
			path := filepath.Join(dir, txIndexLogName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			offs := frameOffsets(t, raw)
			if err := os.WriteFile(path, append(raw, raw[offs[len(offs)-1]:]...), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "written before the index log", wantRebuilt: true, damage: func(t *testing.T, dir string) {
			writtenBeforeIndexLog(t, dir)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, tmpl, dir)
			tc.damage(t, dir)

			re, closeRe, err := Open(dir, cfg)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if got := re.CheckpointHeight(); got != ckptHeight {
				t.Fatalf("checkpoint height %d, want %d (the index alone must not force a full replay)", got, ckptHeight)
			}
			if got := re.Chain().TxIndexStats(); (got.Rebuilt > 0) != tc.wantRebuilt || got.Sealed != st.Sealed {
				t.Fatalf("index after open %+v, before the restart %+v; want rebuilt=%v", got, st, tc.wantRebuilt)
			}
			want.mustEqual(t, answersOf(t, re))
			for _, id := range unknownIDs(1000) {
				if _, ok := re.Receipt(id); ok {
					t.Fatalf("receipt for unknown id %s", id.Short())
				}
				if _, _, err := re.Chain().FindTx(id); !errors.Is(err, ledger.ErrTxNotFound) {
					t.Fatalf("FindTx of unknown id: %v", err)
				}
				if _, err := light.Prove(re.Chain(), id); err == nil {
					t.Fatalf("proof for unknown id %s", id.Short())
				}
			}

			// The repair happens once.
			if err := re.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			if err := closeRe(); err != nil {
				t.Fatal(err)
			}
			again, closeAgain, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAgain()
			if got := again.Chain().TxIndexStats(); got.Rebuilt != 0 || again.CheckpointHeight() != again.Chain().Height() {
				t.Fatalf("second open: index %+v, checkpoint height %d of %d", got, again.CheckpointHeight(), again.Chain().Height())
			}
		})
	}
}

// writtenBeforeIndexLog turns a data directory into what a node wrote
// before txindex.log and blobs.log existed: no index log, a checkpoint
// whose chain snapshot lists every transaction under Txs and carries an
// expert-miner blob, and article bodies as chunks/<hash> and
// manifests/<cid> files.
func writtenBeforeIndexLog(t *testing.T, dir string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, txIndexLogName)); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, checkpointName)
	cp, err := store.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Height   uint64
		BlockIDs []ledger.BlockID
		Nonces   map[string]uint64
	}
	if err := gob.NewDecoder(bytes.NewReader(cp.Chain)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	type txRef struct {
		ID     ledger.TxID
		Height uint64
		Index  int
	}
	old := struct {
		Height   uint64
		BlockIDs []ledger.BlockID
		Txs      []txRef
		Nonces   map[string]uint64
	}{Height: snap.Height, BlockIDs: snap.BlockIDs, Nonces: snap.Nonces}
	log, err := store.OpenFileLog(filepath.Join(dir, chainLogName))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ledger.NewChain(log, store.NewMemLog())
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(0); h < snap.Height; h++ {
		b, err := chain.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		for i, tx := range b.Txs {
			old.Txs = append(old.Txs, txRef{tx.ID(), h, i})
		}
	}
	chain.Close()
	log.Close()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	cp.Chain = buf.Bytes()
	cp.Subscribers["expert-miner"] = []byte(`{"topics":{"politics":["item-0","relay-0"]}}`)
	if err := store.WriteCheckpoint(ckpt, cp); err != nil {
		t.Fatal(err)
	}

	blobDir := filepath.Join(dir, "blobs")
	bs, err := blobstore.Open(blobDir, blobstore.DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"chunks", "manifests"} {
		if err := os.MkdirAll(filepath.Join(blobDir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, cid := range bs.CIDs() {
		m, err := bs.Stat(cid)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d %d\n", m.Size, m.ChunkSize)
		for _, h := range m.Chunks {
			data, ok := bs.Chunk(h)
			if !ok {
				t.Fatalf("chunk %s of %s", h.Short(), cid.Short())
			}
			if err := os.WriteFile(filepath.Join(blobDir, "chunks", h.String()), data, 0o644); err != nil {
				t.Fatal(err)
			}
			sb.WriteString(h.String() + "\n")
		}
		if err := os.WriteFile(filepath.Join(blobDir, "manifests", string(cid)), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bs.Close()
	if err := os.Remove(filepath.Join(blobDir, "blobs.log")); err != nil {
		t.Fatal(err)
	}
}
