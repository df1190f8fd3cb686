package platform

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/consensus"
	"repro/internal/corpus"
	"repro/internal/ledger"
	"repro/internal/light"
)

// TestCommitAndExternalBlocksProduceIdenticalState replays the exact
// block sequence mined by a standalone node into a second node the way a
// validator applies decided blocks (commitDecided, each block with the
// certificate the miner stored) and asserts the derived state — fact
// index, graph, receipts, contract state — is byte-for-byte identical.
// Both paths feed the same commit bus, so any divergence is a bug in the
// pipeline. A third node then replays the miner's chain from disk: Commit,
// commitDecided and replay must write the same receipt records.
func TestCommitAndExternalBlocksProduceIdenticalState(t *testing.T) {
	dir := t.TempDir()
	miner, closeMiner, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeMiner()
	runWorkload(t, miner, 16)
	commitFailingTx(t, miner, "item-0")

	follower, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The follower never saw the publish calls, so off-chain bodies must
	// come from elsewhere — here the miner's store, standing in for the
	// blob retrieval protocol.
	follower.Blobs().SetFallback(func(cid blobstore.CID) ([]byte, bool) {
		if !miner.Blobs().Has(cid) {
			return nil, false
		}
		b, err := miner.Blobs().Get(cid)
		return b, err == nil
	})
	if err := miner.Chain().Walk(0, func(b *ledger.Block) bool {
		cert, err := miner.Chain().CertAt(b.Header.Height)
		if err != nil {
			t.Fatal(err)
		}
		if err := commitBlock(follower, b, cert); err != nil {
			t.Fatalf("commit height %d: %v", b.Header.Height, err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	assertSameDerivedState(t, miner, follower)

	// Commit-bus accounting should agree too: same deliveries, no errors.
	minerStats, followerStats := miner.BusStats(), follower.BusStats()
	if len(minerStats) != len(followerStats) {
		t.Fatalf("subscriber count %d != %d", len(minerStats), len(followerStats))
	}
	for i := range minerStats {
		m, f := minerStats[i], followerStats[i]
		if m.Name != f.Name || m.Delivered != f.Delivered || m.LastHeight != f.LastHeight {
			t.Fatalf("stats diverge: %+v vs %+v", m, f)
		}
		if m.Errors != 0 || f.Errors != 0 {
			t.Fatalf("subscriber %s reported errors: %+v vs %+v", m.Name, m, f)
		}
	}

	height := miner.Chain().Height()
	mined := make([][]byte, height)
	for h := range mined {
		if mined[h], err = miner.receipts.Get(uint64(h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeMiner(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, receiptLogName)); err != nil {
		t.Fatal(err)
	}
	replayed, closeReplayed, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeReplayed()
	for name, p := range map[string]*Platform{"commitDecided": follower, "replay": replayed} {
		if n := p.receipts.Len(); n != height {
			t.Fatalf("%s wrote %d receipt records for %d blocks", name, n, height)
		}
		for h, want := range mined {
			got, err := p.receipts.Get(uint64(h))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("receipt record %d: %s wrote\n%x\nCommit wrote\n%x", h, name, got, want)
			}
		}
	}
}

// commitBlock commits a decided block and its encoded certificate through
// commitDecided, as a validator's CommitBlock does.
func commitBlock(p *Platform, b *ledger.Block, cert []byte) error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	sp, start := p.beginCommit()
	_, err := p.commitDecided(sp, start, b, cert)
	return err
}

func TestMempoolCapacityConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MempoolCapacity = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := p.NewActor("spammer")
	for i := 0; i < 2; i++ {
		if _, err := a.Send("news.publish", []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Send("news.publish", []byte("{}")); !errors.Is(err, ledger.ErrMempoolFull) {
		t.Fatalf("want ErrMempoolFull, got %v", err)
	}
}

func TestMempoolCapacityConfigDurable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MempoolCapacity = 2
	p, closeFn, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	a := p.NewActor("spammer")
	for i := 0; i < 2; i++ {
		if _, err := a.Send("news.publish", []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Send("news.publish", []byte("{}")); !errors.Is(err, ledger.ErrMempoolFull) {
		t.Fatalf("want ErrMempoolFull, got %v", err)
	}
}

func TestDefaultMempoolCapacityScalesWithBlockSize(t *testing.T) {
	if got := defaultMempoolCapacity(512); got != 1<<16 {
		t.Fatalf("default for 512 = %d want %d", got, 1<<16)
	}
	if got := defaultMempoolCapacity(4096); got != 128*4096 {
		t.Fatalf("default for 4096 = %d want %d", got, 128*4096)
	}
}

// A standalone node decides each block as a validator set of one, its
// authority: every stored block carries a certificate that set accepts
// for that block's id and height, block sync serves every height, and a
// light client accepts a transaction proof finalized by it, and not by
// another set. It holds on an in-memory node and on a durable one,
// reopened once through full replay and once from a checkpoint.
func TestStandaloneBlocksAreCertified(t *testing.T) {
	mem, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, mem, 4)
	assertCertified(t, mem)

	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 4)
	assertCertified(t, p)
	closeFn()
	replayed, closeReplayed, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if replayed.CheckpointHeight() != 0 {
		t.Fatalf("reopened from a checkpoint at %d, want full replay", replayed.CheckpointHeight())
	}
	assertCertified(t, replayed)
	if err := replayed.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := replayed.NewActor("after-checkpoint").PublishNews("tail-item", corpus.TopicScience, "a statement above the checkpoint", nil, ""); err != nil {
		t.Fatal(err)
	}
	closeReplayed()
	restored, closeRestored, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeRestored()
	if h := restored.CheckpointHeight(); h == 0 || h == restored.Chain().Height() {
		t.Fatalf("checkpoint height %d of %d, want a restore with a tail", h, restored.Chain().Height())
	}
	assertCertified(t, restored)
}

// assertCertified checks every height of p's chain against the validator
// set of one made of p's authority key.
func assertCertified(t *testing.T, p *Platform) {
	t.Helper()
	self, err := consensus.NewValidatorSet([]consensus.Validator{{ID: "authority", Addr: p.authority.Address(), Pub: p.authority.Public(), Power: 1}})
	if err != nil {
		t.Fatal(err)
	}
	others, _, err := ClusterValidators(4)
	if err != nil {
		t.Fatal(err)
	}
	chain := p.Chain()
	if chain.Height() == 0 {
		t.Fatal("no blocks")
	}
	reader := light.NewClient()
	if err := reader.SyncFrom(chain); err != nil {
		t.Fatal(err)
	}
	sync := &consensus.ChainApp{Chain: chain}
	for h := uint64(0); h < chain.Height(); h++ {
		b, err := chain.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := chain.CertAt(h)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := consensus.DecodeCommit(raw)
		if err != nil {
			t.Fatalf("height %d: %v", h, err)
		}
		if err := consensus.VerifyCommit(cert, self); err != nil || cert.Height != h || cert.BlockID != b.ID() {
			t.Fatalf("height %d: certificate for height %d block %s (%v), want block %s", h, cert.Height, cert.BlockID.Short(), err, b.ID().Short())
		}
		if served, _, err := sync.BlockAt(h); err != nil || served.ID() != b.ID() {
			t.Fatalf("height %d: block sync serves %v", h, err)
		}
		proof, err := light.Prove(chain, b.Txs[0].ID())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reader.VerifyFinalized(proof, cert, self); err != nil {
			t.Fatalf("height %d: a proof finalized by the authority rejected: %v", h, err)
		}
		if _, err := reader.VerifyFinalized(proof, cert, others); err == nil {
			t.Fatalf("height %d: a proof finalized by the authority accepted against a cluster's validators", h)
		}
	}
}
