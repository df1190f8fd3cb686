package ingest

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/supplychain"
)

// commitDriver mines standalone blocks in the background, standing in
// for the node's commit loop.
func commitDriver(t *testing.T, p *platform.Platform, stop chan struct{}) {
	t.Helper()
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				if err := p.CommitAll(); err != nil {
					return
				}
			}
		}
	}()
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPipelinePublishesAndAcks(t *testing.T) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, 2)
	stop := make(chan struct{})
	defer close(stop)
	commitDriver(t, p, stop)
	pl.Start()
	defer pl.Stop()

	texts := []string{
		"senate passes the budget bill after a long debate",
		"<p>city&nbsp;paper: the   match ended <b>in a draw</b></p>",
	}
	for i, txt := range texts {
		if _, err := pl.Enqueue(Article{Source: "wire", Topic: "econ", Text: txt}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "publishes to commit", func() bool {
		st := pl.Stats()
		return st.Published == 2 && st.Queue.Depth == 0
	})

	// The extracted (not raw) text is what landed on chain, off-chain
	// chunked, under the deterministic content id.
	cleaned, _ := Extract(texts[1], 0)
	it, err := p.Item(ItemIDFor(cleaned))
	if err != nil {
		t.Fatal(err)
	}
	if it.Text != cleaned {
		t.Fatalf("on-chain text = %q, want extracted %q", it.Text, cleaned)
	}
	if it.CID == "" {
		t.Fatal("ingested body not stored off-chain")
	}
}

func TestPipelineDedupsSameContent(t *testing.T) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, 4)
	stop := make(chan struct{})
	defer close(stop)
	commitDriver(t, p, stop)
	pl.Start()
	defer pl.Stop()

	// The same story fetched from three "sources" (and with markup
	// differences that extraction normalizes away) publishes once.
	for i := 0; i < 3; i++ {
		if _, err := pl.Enqueue(Article{Source: fmt.Sprintf("src-%d", i), Topic: "econ", Text: "senate  passes THE budget"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "queue to drain", func() bool {
		st := pl.Stats()
		return st.Queue.Depth == 0 && st.AwaitingCommit == 0
	})
	st := pl.Stats()
	if st.Published+st.Deduped != 3 || st.Published < 1 {
		t.Fatalf("published=%d deduped=%d, want 3 settles with >=1 publish", st.Published, st.Deduped)
	}
	// Content keys are token-normalized, so all three map to one id.
	if st.Published != 1 {
		t.Fatalf("published = %d, want exactly 1 (duplicates must dedup)", st.Published)
	}
}

// TestPipelineCrashRecoveryNoLossNoDup is acceptance criterion (d): a
// node killed mid-ingest recovers its queue from the WAL with no lost
// acked items and no duplicate publishes.
func TestPipelineCrashRecoveryNoLossNoDup(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	cfg := platform.DefaultConfig()
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wal, err := store.OpenFileLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(wal, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, 2)
	stop := make(chan struct{})
	commitDriver(t, p, stop)
	pl.Start()

	const total = 40
	for i := 0; i < total; i++ {
		if _, err := pl.Enqueue(Article{Source: "wire", Topic: "econ", Text: fmt.Sprintf("unique story number %d with enough words to index", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Let roughly half the work settle, then "crash": stop workers and
	// the commit loop without draining, abandon the queue handle.
	waitFor(t, 5*time.Second, "partial progress", func() bool { return pl.Stats().Published >= total/2 })
	pl.Stop()
	close(stop)
	ackedBefore := pl.Stats().Queue.Acked
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same chain (the node's durable state), reopened WAL.
	wal2, err := store.OpenFileLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQueue(wal2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(q2.Stats().Depth); got != uint64(total)-ackedBefore {
		t.Fatalf("recovered depth = %d, want %d (acked items must stay settled)", got, uint64(total)-ackedBefore)
	}
	// A publish the crash stranded in the mempool can take the nonce of a
	// redelivered one, whose receipt then never lands: it settles by ack
	// timeout, which must fit well inside this test's wait.
	pl2 := NewPipeline(p, q2, 2)
	pl2.ackTimeout = time.Second
	stop2 := make(chan struct{})
	defer close(stop2)
	commitDriver(t, p, stop2)
	pl2.Start()
	defer pl2.Stop()
	waitFor(t, 10*time.Second, "recovery drain", func() bool {
		st := pl2.Stats()
		return st.Queue.Depth == 0 && st.AwaitingCommit == 0
	})

	// Every article is on chain exactly once: items submitted-but-unacked
	// at crash time redeliver, and the deterministic content id turns
	// their second publish into a dedup, not a duplicate item.
	onChain := 0
	for i := 0; i < total; i++ {
		text, _ := Extract(fmt.Sprintf("unique story number %d with enough words to index", i), 0)
		if _, err := supplychain.GetItem(p.Engine(), p.Authority(), ItemIDFor(text)); err == nil {
			onChain++
		}
	}
	if onChain != total {
		t.Fatalf("on-chain items = %d, want %d (lost work)", onChain, total)
	}
	// Each WAL item settled exactly once across both incarnations, and
	// nothing was poisoned by the crash.
	st2 := pl2.Stats()
	if ackedBefore+st2.Queue.Acked != uint64(total) {
		t.Fatalf("acks = %d + %d, want %d (each item settles exactly once)", ackedBefore, st2.Queue.Acked, total)
	}
	if st2.Queue.Dead != 0 {
		t.Fatalf("dead = %d after recovery", st2.Queue.Dead)
	}
}

// TestPipelineDeadLettersEmptyBodies: a body with nothing to extract
// can never publish, so it is dead-lettered on its first attempt and
// counted as one failure, not retried.
func TestPipelineDeadLettersEmptyBodies(t *testing.T) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, 1)
	stop := make(chan struct{})
	defer close(stop)
	commitDriver(t, p, stop)
	pl.Start()
	defer pl.Stop()
	if _, err := pl.Enqueue(Article{Source: "mill", Topic: "econ", Text: "<div><span></span></div>"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "poison item to dead-letter", func() bool {
		return q.Stats().Dead == 1
	})
	if dead := q.Dead(); len(dead) != 1 || dead[0].Attempts != 1 {
		t.Fatalf("dead = %+v, want one item after one attempt", dead)
	}
	if st := pl.Stats(); st.Failed != 1 || st.Queue.Retries != 0 {
		t.Fatalf("failed = %d, retries = %d; want 1 and 0", st.Failed, st.Queue.Retries)
	}
}

// startPipeline starts a pipeline of the given workers over a fresh
// in-memory queue on p, stopped at the end of the test.
func startPipeline(t *testing.T, p *platform.Platform, workers int) *Pipeline {
	t.Helper()
	q, err := NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, workers)
	pl.Start()
	t.Cleanup(pl.Stop)
	return pl
}

// runCommitter commits blocks the way a standalone node does: as soon as
// a transaction arrives, and never while the mempool is empty.
func runCommitter(t *testing.T, p *platform.Platform) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.RunCommitter(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// TestPipelineSettlesManyOnFewWorkers: 200 articles on 4 workers all
// publish and settle, with nothing left in flight.
func TestPipelineSettlesManyOnFewWorkers(t *testing.T) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runCommitter(t, p)
	pl := startPipeline(t, p, 4)
	const total = 200
	for i := 0; i < total; i++ {
		if _, err := pl.Enqueue(Article{Source: "wire", Topic: "econ", Text: fmt.Sprintf("story number %d about the harbor", i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "every article to settle", func() bool {
		st := pl.Stats()
		return st.Published == total && st.Queue.Depth == 0
	})
	if st := pl.Stats(); st.Queue.Inflight != 0 || st.AwaitingCommit != 0 || st.Failed != 0 || st.Deduped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPipelineSettlesCommitRacingTheSettler: each article's block
// commits after the settler's pass missed its receipt and before the
// settler waits, and no later block comes. The settler takes the commit
// signal before its pass, so it still settles each one at once instead
// of at the ack timeout.
func TestPipelineSettlesCommitRacingTheSettler(t *testing.T) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, 1)
	pl.afterPass = func() {
		if pl.Stats().AwaitingCommit > 0 {
			if err := p.CommitAll(); err != nil {
				t.Error(err)
			}
		}
	}
	pl.Start()
	defer pl.Stop()
	for i := 0; i < 20; i++ {
		if _, err := pl.Enqueue(Article{Source: "wire", Topic: "econ", Text: fmt.Sprintf("race story %d", i)}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, time.Second, fmt.Sprintf("article %d to settle on its commit", i), func() bool {
			return pl.Stats().Published == uint64(i+1)
		})
	}
}

// TestPipelineStopIsPromptWhileWaiting: Stop returns at once when every
// worker and the settler are waiting for work.
func TestPipelineStopIsPromptWhileWaiting(t *testing.T) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, 4)
	pl.Start()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	pl.Stop()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Stop took %v", d)
	}
}

// TestPipelineRetriesSubmitToFullMempool: a publish refused by a full
// mempool fails its attempt, and the retry publishes it once the pool
// has drained.
func TestPipelineRetriesSubmitToFullMempool(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.MempoolCapacity = 2
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	filler := p.NewActor("filler")
	for i := 0; i < 2; i++ {
		payload, err := supplychain.PublishPayload(fmt.Sprintf("filler-%d", i), "econ", "filler text", nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := filler.Send("news.publish", payload); err != nil {
			t.Fatal(err)
		}
	}
	q, err := NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.retryDelay = 50 * time.Millisecond
	pl := NewPipeline(p, q, 1)
	pl.Start()
	defer pl.Stop()
	if _, err := pl.Enqueue(Article{Source: "wire", Topic: "econ", Text: "story that waits for room"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "the refused submit to fail", func() bool { return pl.Stats().Failed >= 1 })
	if err := p.CommitAll(); err != nil { // the pool drains
		t.Fatal(err)
	}
	runCommitter(t, p)
	waitFor(t, 5*time.Second, "the retry to publish", func() bool {
		st := pl.Stats()
		return st.Published == 1 && st.Queue.Depth == 0
	})
	if st := pl.Stats(); st.Queue.Dead != 0 || st.Queue.Retries != st.Failed {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPipelineDeadLettersAfterFiveAttempts: an article whose every
// attempt fails is dead-lettered at its fifth.
func TestPipelineDeadLettersAfterFiveAttempts(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.MempoolCapacity = 1
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := supplychain.PublishPayload("filler", "econ", "filler text", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewActor("filler").Send("news.publish", payload); err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	q.retryDelay = time.Millisecond
	pl := NewPipeline(p, q, 1)
	pl.Start()
	defer pl.Stop()
	if _, err := pl.Enqueue(Article{Source: "wire", Topic: "econ", Text: "story that never finds room"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the article to dead-letter", func() bool { return q.Stats().Dead == 1 })
	if dead := q.Dead(); dead[0].Attempts != maxAttempts || maxAttempts != 5 {
		t.Fatalf("dead after %d attempts, want 5", dead[0].Attempts)
	}
	if st := pl.Stats(); st.Failed != 5 || st.Queue.Retries != 4 || st.Queue.Depth != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
