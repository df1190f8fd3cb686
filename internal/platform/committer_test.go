package platform

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/supplychain"
)

// commitGate is a test contract: a block carrying a "gate.hold"
// transaction reports it and holds its commit inside execution, under the
// platform lock, until released, so a test can pile up submissions behind
// a commit that is known to be in progress.
type commitGate struct {
	held    chan struct{} // one send per gate.hold executed
	release chan struct{} // closed to let commits through
}

func (g *commitGate) Name() string { return "gate" }
func (g *commitGate) Execute(*contract.Context, string, []byte) ([]byte, error) {
	g.held <- struct{}{}
	<-g.release
	return nil, nil
}

// registerGate puts a fresh commitGate on p's engine.
func registerGate(t *testing.T, p *Platform) *commitGate {
	t.Helper()
	gate := &commitGate{held: make(chan struct{}, 1), release: make(chan struct{})}
	if err := p.Engine().Register(gate); err != nil {
		t.Fatal(err)
	}
	return gate
}

// committedTxs reports how many blocks p's chain holds and how many
// transactions they carry.
func committedTxs(t *testing.T, p *Platform) (blocks, txs int) {
	t.Helper()
	if err := p.Chain().Walk(0, func(b *ledger.Block) bool {
		blocks++
		txs += len(b.Txs)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return blocks, txs
}

func publishPayload(t testing.TB, id string) []byte {
	t.Helper()
	payload, err := supplychain.PublishPayload(id, corpus.TopicPolitics, "statement "+id, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A transaction submitted to an idle node is committed by the committer
// alone — nothing else in this test calls Commit — and a burst that
// arrives while that commit is still running shares the blocks after it
// instead of getting one each.
func TestCommitterCommitsOnArrivalAndCoalesces(t *testing.T) {
	const burst = 999
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gate := registerGate(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- p.RunCommitter(ctx) }()

	if _, err := p.NewActor("first").Send("gate.hold", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.held:
		// The block is appended before it is executed.
		if blocks, txs := committedTxs(t, p); blocks != 1 || txs != 1 {
			t.Fatalf("first commit holds %d blocks of %d txs, want one of 1", blocks, txs)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a tx submitted to an idle node was never committed")
	}

	// The first commit now sits in the gate; the burst arrives while it
	// holds the platform lock.
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		id := "burst-" + strconv.Itoa(i)
		payload := publishPayload(t, id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.NewActor(id).Send("news.publish", payload); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "the burst to reach the mempool", func() bool { return p.MempoolSize() == burst })
	close(gate.release)
	wg.Wait()

	waitFor(t, "the burst to commit", func() bool { _, txs := committedTxs(t, p); return txs == burst+1 })
	if blocks, txs := committedTxs(t, p); blocks > 10 {
		t.Fatalf("%d txs took %d blocks: submissions made during a commit must share the next block", txs, blocks)
	}
	cancel()
	if err := <-stopped; err != nil {
		t.Fatalf("RunCommitter: %v", err)
	}
}

// A submitter does not queue behind a running commit: while a block is
// held open inside the commit path, Submit returns and hands the
// transaction to the relay hook.
func TestSubmitDoesNotWaitForRunningCommit(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gate := registerGate(t, p)
	relayed := make(chan string, 2)
	p.SetOnSubmit(func(tx *ledger.Tx) { relayed <- tx.ID().Short() })

	if _, err := p.NewActor("first").Send("gate.hold", nil); err != nil {
		t.Fatal(err)
	}
	<-relayed
	committed := make(chan error, 1)
	go func() { committed <- p.CommitAll() }()
	select {
	case <-gate.held: // the commit of `first` now sits in the gate
	case <-time.After(30 * time.Second):
		t.Fatal("commit never reached execution")
	}

	second, err := ledger.NewTx(keys.FromSeed([]byte("second")), 0, "news.publish", publishPayload(t, "second"))
	if err != nil {
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() { submitted <- p.Submit(second) }()
	select {
	case err := <-submitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit waited for the running commit")
	}
	select {
	case id := <-relayed:
		if id != second.ID().Short() {
			t.Fatalf("relay hook saw %s, want %s", id, second.ID().Short())
		}
	default:
		t.Fatal("Submit returned without calling the relay hook")
	}
	select {
	case err := <-committed:
		t.Fatalf("the gated commit finished before the gate was released: %v", err)
	default:
	}

	close(gate.release)
	if err := <-committed; err != nil {
		t.Fatalf("CommitAll: %v", err)
	}
	waitFor(t, "the second tx to commit", func() bool { _, err := p.Item("second"); return err == nil })
}

// Cancelling the context is a request to finish, not to abandon: what is
// in the mempool at that moment is committed before RunCommitter returns.
func TestCommitterDrainsOnShutdown(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := p.NewActor("author")
	var ids []string
	for i := 0; i < 5; i++ {
		id := "pending-" + strconv.Itoa(i)
		if _, err := a.Send("news.publish", publishPayload(t, id)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.RunCommitter(ctx); err != nil {
		t.Fatalf("RunCommitter: %v", err)
	}
	if n := p.MempoolSize(); n != 0 {
		t.Fatalf("%d txs left in the mempool after shutdown", n)
	}
	for _, id := range ids {
		if _, err := p.Item(id); err != nil {
			t.Fatalf("%s not committed by the shutdown drain: %v", id, err)
		}
	}
}
