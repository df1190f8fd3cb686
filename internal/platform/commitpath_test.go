package platform

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/ledger"
)

// TestCommitAndExternalBlocksProduceIdenticalState replays the exact
// block sequence mined by a standalone node into a second node through
// the consensus path (commitDecided: append, execute, index) and asserts the
// derived state — fact index, graph, receipts, contract
// state — is byte-for-byte identical. Both paths feed the same commit
// bus, so any divergence is a bug in the pipeline. A third node then
// replays the miner's chain from disk: Commit, commitDecided and replay
// must write the same receipt records.
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
		if err := follower.commitDecided(b, nil); err != nil {
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
