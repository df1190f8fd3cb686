package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/consensus"
	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/ledger"
	"repro/internal/light"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// TestCommitAndExternalBlocksProduceIdenticalState replays the exact
// block sequence mined by a standalone node into a second node the way a
// validator applies decided blocks (commitDecided, each block with the
// certificate the miner stored) and asserts the derived state — fact
// index, graph, receipts, contract state — is byte-for-byte identical.
// Both paths feed the views through the same function, so any divergence
// is a bug in the pipeline. A third node then replays the miner's chain from disk: Commit,
// commitDecided and replay must write the same receipt records.
func TestCommitAndExternalBlocksProduceIdenticalState(t *testing.T) {
	dir := t.TempDir()
	miner, closeMiner, err := Open(dir, instrumentedConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeMiner()
	runWorkload(t, miner, 16)
	commitFailingTx(t, miner, "item-0")

	follower, err := New(instrumentedConfig())
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

	// No view missed a block on either path.
	if m, f := viewErrors(t, miner), viewErrors(t, follower); m != 0 || f != 0 {
		t.Fatalf("view errors: miner %d, follower %d", m, f)
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

// instrumentedConfig is DefaultConfig with a metrics registry of its own.
func instrumentedConfig() Config {
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	return cfg
}

// viewErrors reads p's trustnews_platform_view_errors_total. p must carry
// a registry: without one the counter would read 0 whatever happened.
func viewErrors(t *testing.T, p *Platform) uint64 {
	t.Helper()
	if p.Telemetry() == nil {
		t.Fatal("node has no metrics registry")
	}
	return p.Telemetry().Counter("trustnews_platform_view_errors_total", "").Value()
}

// A receipt result that does not decode costs its view that one entry and
// counts once per view in trustnews_platform_view_errors_total; the
// block's other facts and items still reach the views.
func TestUndecodableResultCountsAsViewError(t *testing.T) {
	p, err := New(instrumentedConfig())
	if err != nil {
		t.Fatal(err)
	}
	event := func(contractName, typ string, result []byte) contract.Receipt {
		return contract.Receipt{OK: true, Result: result, Events: []contract.Event{{Contract: contractName, Type: typ}}}
	}
	fact, _ := json.Marshal(factdb.Fact{ID: "f1", Topic: corpus.TopicPolitics, Text: "the budget passed the senate"})
	item, _ := json.Marshal(supplychain.Item{ID: "n1", Topic: corpus.TopicPolitics, Text: "the senate passed the budget"})
	recs := []contract.Receipt{
		event(factdb.ContractName, "fact_added", []byte("{")),
		event(factdb.ContractName, "fact_added", fact),
		event(supplychain.ContractName, "published", []byte("{")),
		event(supplychain.ContractName, "published", item),
	}
	p.mu.Lock()
	err = p.updateViewsLocked(recs)
	p.mu.Unlock()
	if err == nil {
		t.Fatal("undecodable results were not reported")
	}
	if n := viewErrors(t, p); n != 2 {
		t.Fatalf("view errors = %d, want 2 (one per view)", n)
	}
	if facts := p.FactIndex().Facts(); len(facts) != 1 || facts[0].ID != "f1" {
		t.Fatalf("fact index holds %+v, want f1", facts)
	}
	p.FlushSearch()
	if res := p.Search("budget", 5); len(res) != 1 || res[0].ID != "n1" {
		t.Fatalf("search finds %v, want n1", res)
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
