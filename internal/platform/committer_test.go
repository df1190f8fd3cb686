package platform

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/commitbus"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/supplychain"
)

// commitGate is a commit-bus subscriber that reports every block it is
// handed and holds the commit path inside the first one until released,
// so a test can pile up submissions behind a commit that is known to be
// in progress.
type commitGate struct {
	blocks  chan int      // one send per block: its tx count
	release chan struct{} // closed to let commits through
}

func (g *commitGate) Name() string { return "test-commit-gate" }
func (g *commitGate) OnCommit(ev commitbus.CommitEvent) error {
	g.blocks <- len(ev.Block.Txs)
	<-g.release
	return nil
}
func (g *commitGate) Snapshot() ([]byte, error) { return nil, nil }
func (g *commitGate) Restore([]byte) error      { return nil }

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
	gate := &commitGate{blocks: make(chan int, burst+1), release: make(chan struct{})}
	if err := p.Bus().Register(gate); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- p.RunCommitter(ctx) }()

	if _, err := p.NewActor("first").Send("news.publish", publishPayload(t, "first")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-gate.blocks:
		if n != 1 {
			t.Fatalf("first block holds %d txs, want 1", n)
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

	blocks, txs := 1, 1
	for txs < burst+1 {
		select {
		case n := <-gate.blocks:
			blocks++
			txs += n
		case <-time.After(30 * time.Second):
			t.Fatalf("committed %d of %d txs", txs, burst+1)
		}
	}
	if blocks > 10 {
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
	gate := &commitGate{blocks: make(chan int, 2), release: make(chan struct{})}
	if err := p.Bus().Register(gate); err != nil {
		t.Fatal(err)
	}
	relayed := make(chan string, 2)
	p.SetOnSubmit(func(tx *ledger.Tx) { relayed <- tx.ID().Short() })

	if _, err := p.NewActor("first").Send("news.publish", publishPayload(t, "first")); err != nil {
		t.Fatal(err)
	}
	<-relayed
	committed := make(chan error, 1)
	go func() { committed <- p.CommitAll() }()
	select {
	case <-gate.blocks: // the commit of `first` now sits in the gate
	case <-time.After(30 * time.Second):
		t.Fatal("commit never reached the bus")
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
