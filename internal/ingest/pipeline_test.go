package ingest

import (
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
	q, err := NewQueue(nil, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, PipelineConfig{Workers: 2})
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
	it, err := p.Item(itemIDFor(cleaned))
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
	q, err := NewQueue(nil, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, PipelineConfig{Workers: 4})
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
	q, err := NewQueue(wal, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, PipelineConfig{Workers: 2})
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
	q2, err := NewQueue(wal2, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(q2.Stats().Depth); got != uint64(total)-ackedBefore {
		t.Fatalf("recovered depth = %d, want %d (acked items must stay settled)", got, uint64(total)-ackedBefore)
	}
	// A publish the crash stranded in the mempool can take the nonce of a
	// redelivered one, whose receipt then never lands: it settles by ack
	// timeout, which must fit well inside this test's wait.
	pl2 := NewPipeline(p, q2, PipelineConfig{Workers: 2, AckTimeout: time.Second})
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
		if _, err := supplychain.GetItem(p.Engine(), p.Authority(), itemIDFor(text)); err == nil {
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

func TestPipelineDeadLettersEmptyBodies(t *testing.T) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(nil, QueueConfig{MaxAttempts: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(p, q, PipelineConfig{Workers: 1})
	stop := make(chan struct{})
	defer close(stop)
	commitDriver(t, p, stop)
	pl.Start()
	defer pl.Stop()
	if _, err := pl.Enqueue(Article{Source: "mill", Topic: "econ", Text: "<div><span></span></div>"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "poison item to dead-letter", func() bool {
		return q.Stats().Dead == 1
	})
	if got := len(q.Dead()); got != 1 {
		t.Fatalf("dead = %d", got)
	}
}
