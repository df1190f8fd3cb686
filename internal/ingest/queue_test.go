package ingest

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func newTestQueue(t *testing.T, wal store.Log) *Queue {
	t.Helper()
	q, err := NewQueue(wal, 0)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// done is a context that is already done: Take returns a ready item or
// ok=false at once.
func done() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// takeWithin is Take bounded by d.
func takeWithin(q *Queue, d time.Duration) (uint64, Article, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return q.Take(ctx)
}

func TestQueueEnqueueLeaseAck(t *testing.T) {
	q := newTestQueue(t, nil)
	seqA, err := q.Enqueue(Article{Source: "wire", Topic: "econ", Text: "first"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(Article{Source: "wire", Topic: "econ", Text: "second"}); err != nil {
		t.Fatal(err)
	}
	seq, a, ok := q.Take(done())
	if !ok || seq != seqA || a.Text != "first" {
		t.Fatalf("take = (%d, %+v, %v), want oldest first", seq, a, ok)
	}
	if err := q.Ack(seq); err != nil {
		t.Fatal(err)
	}
	if err := q.Ack(seq); err != nil {
		t.Fatalf("duplicate ack not a no-op: %v", err)
	}
	st := q.Stats()
	if st.Depth != 1 || st.Acked != 1 || st.Enqueued != 2 || st.Inflight != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueCapacityShedsFast(t *testing.T) {
	q, err := NewQueue(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.Enqueue(Article{Text: fmt.Sprintf("a%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Enqueue(Article{Text: "overflow"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// Settling one item frees capacity.
	seq, _, _ := q.Take(done())
	if err := q.Ack(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(Article{Text: "fits now"}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueRetryReturnsItemAfterDelay: a failed attempt leaves flight,
// is not ready during the retry delay, and is ready after it, once.
func TestQueueRetryReturnsItemAfterDelay(t *testing.T) {
	q := newTestQueue(t, nil)
	q.retryDelay = 50 * time.Millisecond
	if _, err := q.Enqueue(Article{Text: "flaky"}); err != nil {
		t.Fatal(err)
	}
	seq, _, ok := q.Take(done())
	if !ok {
		t.Fatal("nothing to take")
	}
	start := time.Now()
	if err := q.Retry(seq, "transient"); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Inflight != 0 || st.Depth != 1 || st.Retries != 1 {
		t.Fatalf("after retry: stats = %+v", st)
	}
	if _, _, ok := q.Take(done()); ok {
		t.Fatal("taken during the retry delay")
	}
	again, _, ok := takeWithin(q, 5*time.Second)
	if !ok || again != seq {
		t.Fatalf("not ready again after the delay: (%d, %v)", again, ok)
	}
	if waited := time.Since(start); waited < q.retryDelay {
		t.Fatalf("ready again after %v, before the %v delay", waited, q.retryDelay)
	}
	if _, _, ok := takeWithin(q, 100*time.Millisecond); ok {
		t.Fatal("one retry made the item ready twice")
	}
}

// TestQueueInFlightItemIsNotRedelivered: an item in flight is not handed
// out again however long it is held; only a reopen of the WAL (a crash)
// makes it ready again.
func TestQueueInFlightItemIsNotRedelivered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	wal, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	q := newTestQueue(t, wal)
	if _, err := q.Enqueue(Article{Text: "slow worker"}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := q.Take(done()); !ok {
		t.Fatal("nothing to take")
	}
	if _, _, ok := takeWithin(q, 100*time.Millisecond); ok {
		t.Fatal("handed out an item in flight")
	}
	if st := q.Stats(); st.Inflight != 1 || st.Depth != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := wal.Close(); err != nil { // crash
		t.Fatal(err)
	}
	wal2, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if _, a, ok := newTestQueue(t, wal2).Take(done()); !ok || a.Text != "slow worker" {
		t.Fatalf("after reopen: (%+v, %v), want the item ready again", a, ok)
	}
}

func TestQueuePoisonItemDeadLetters(t *testing.T) {
	q := newTestQueue(t, nil)
	q.maxAttempts, q.retryDelay = 3, 0
	if _, err := q.Enqueue(Article{Source: "mill", Text: "poison"}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue(Article{Source: "wire", Text: "healthy"}); err != nil {
		t.Fatal(err)
	}
	seq, a, ok := q.Take(done())
	for i := 0; i < 3; i++ {
		if !ok || a.Text != "poison" {
			t.Fatalf("attempt %d: take = (%v, %+v)", i, ok, a)
		}
		if err := q.Retry(seq, "boom"); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// The healthy item was behind the poison one; the retry put
			// the poison item behind it.
			if _, h, ok := q.Take(done()); !ok || h.Text != "healthy" {
				t.Fatalf("take = (%v, %+v), want the healthy item", ok, h)
			}
		}
		seq, a, ok = takeWithin(q, time.Second)
	}
	if ok {
		t.Fatalf("dead-lettered item taken again: %+v", a)
	}
	dead := q.Dead()
	if len(dead) != 1 || dead[0].Article.Text != "poison" || dead[0].Attempts != 3 {
		t.Fatalf("dead = %+v", dead)
	}
	if st := q.Stats(); st.Dead != 1 || st.Depth != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQueueWALRecovery is the crash-consistency contract: after a
// "crash" (reopening the WAL file), acked items stay settled, dead
// items stay dead, and everything else — including items in flight at
// crash time — redelivers exactly once each.
func TestQueueWALRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	wal, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	q := newTestQueue(t, wal)
	q.maxAttempts, q.retryDelay = 2, 0
	for _, txt := range []string{"acked", "in-flight-at-crash", "poison", "never-taken"} {
		if _, err := q.Enqueue(Article{Source: "wire", Topic: "econ", Text: txt}); err != nil {
			t.Fatal(err)
		}
	}
	// Settle one, hold one in flight over the crash, exhaust the poison
	// item, leave one untouched.
	s, a, ok := q.Take(done())
	if !ok || a.Text != "acked" {
		t.Fatalf("take = %+v", a)
	}
	if err := q.Ack(s); err != nil {
		t.Fatal(err)
	}
	if _, a, ok = q.Take(done()); !ok || a.Text != "in-flight-at-crash" {
		t.Fatalf("take = %+v", a)
	}
	if s, a, ok = q.Take(done()); !ok || a.Text != "poison" {
		t.Fatalf("take = (%v, %+v)", ok, a)
	}
	if err := q.DeadLetter(s, "poison"); err != nil {
		t.Fatal(err)
	}
	if d := q.Dead(); len(d) != 1 || d[0].Article.Text != "poison" {
		t.Fatalf("dead = %+v", d)
	}
	if err := wal.Close(); err != nil { // crash: no graceful queue Close
		t.Fatal(err)
	}

	wal2, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	q2 := newTestQueue(t, wal2)
	var recovered []string
	for {
		s, a, ok := q2.Take(done())
		if !ok {
			break
		}
		recovered = append(recovered, a.Text)
		if err := q2.Ack(s); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]bool{"in-flight-at-crash": true, "never-taken": true}
	if len(recovered) != len(want) {
		t.Fatalf("recovered %v, want exactly %v", recovered, want)
	}
	for _, txt := range recovered {
		if !want[txt] {
			t.Fatalf("recovered %q: acked or dead item came back", txt)
		}
	}
	if d := q2.Dead(); len(d) != 1 || d[0].Article.Text != "poison" {
		t.Fatalf("dead after reopen = %+v", d)
	}
}

// TestQueueCompactsWALOnOpen: opening a queue rewrites its log down to
// the records replay needs, so the file does not keep every body ever
// accepted. A reopen of the compacted log recovers the same queue.
func TestQueueCompactsWALOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	wal, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	q := newTestQueue(t, wal)
	for i := 0; i < 50; i++ {
		if seq, err := q.Enqueue(Article{Source: "wire", Text: fmt.Sprintf("story %d", i)}); err != nil || seq != uint64(i) {
			t.Fatalf("enqueue %d: seq %d, %v", i, seq, err)
		}
	}
	for seq := uint64(0); seq < 50; seq++ {
		switch {
		case seq <= 38 || seq == 49:
			err = q.Ack(seq)
		case seq == 39 || seq == 40:
			err = q.DeadLetter(seq, "poison")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	for reopen := 1; reopen <= 2; reopen++ {
		wal, err := store.OpenFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		q := newTestQueue(t, wal)
		// 8 live enqueues, 2 dead pairs, and seq 49's enqueue and ack.
		if n := wal.Len(); n != 14 {
			t.Fatalf("reopen %d: log holds %d records, want 14", reopen, n)
		}
		if d, dead := q.Depth(), q.Dead(); d != 8 || len(dead) != 2 || dead[0].Seq != 39 || dead[1].Seq != 40 {
			t.Fatalf("reopen %d: depth %d, dead %+v", reopen, d, dead)
		}
		if reopen == 2 {
			if seq, err := q.Enqueue(Article{Text: "next"}); err != nil || seq != 50 {
				t.Fatalf("next enqueue: seq %d, %v; want 50", seq, err)
			}
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueueKeepsNewestDeadLetters: the queue keeps only the newest maxDead
// dead-lettered items, bodies included, live and across a reopen, whose
// compaction drops the evicted items' records.
func TestQueueKeepsNewestDeadLetters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	wal, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	q := newTestQueue(t, wal)
	const poison = 3 * maxDead
	for i := 0; i < poison; i++ {
		seq, err := q.Enqueue(Article{Source: "wire", Text: fmt.Sprintf("poison %d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := q.DeadLetter(seq, "poison"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, q *Queue) {
		t.Helper()
		dead := q.Dead()
		if len(dead) != maxDead || q.Stats().Dead != maxDead {
			t.Fatalf("%s: %d dead items kept (stats %d), want %d", when, len(dead), q.Stats().Dead, maxDead)
		}
		if first, last := dead[0].Seq, dead[len(dead)-1].Seq; first != poison-maxDead || last != poison-1 {
			t.Fatalf("%s: dead items %d..%d kept, want the newest %d..%d", when, first, last, poison-maxDead, poison-1)
		}
	}
	check("live", q)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err = store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	q = newTestQueue(t, wal)
	check("reopened", q)
	if n := wal.Len(); n < 2*maxDead || n > 2*maxDead+2 {
		t.Fatalf("reopened log holds %d records, want about %d", n, 2*maxDead+2)
	}
	if seq, err := q.Enqueue(Article{Text: "next"}); err != nil || seq != poison {
		t.Fatalf("next enqueue: seq %d, %v; want %d", seq, err, poison)
	}
}

// TestQueueTakeWaitsForEnqueue: workers blocked in Take are woken by an
// Enqueue, one per item, and Close wakes the rest.
func TestQueueTakeWaitsForEnqueue(t *testing.T) {
	q := newTestQueue(t, nil)
	const workers = 4
	got := make(chan string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, a, ok := q.Take(context.Background())
				if !ok {
					return
				}
				got <- a.Text
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let every worker block
	for _, txt := range []string{"one", "two"} {
		if _, err := q.Enqueue(Article{Text: txt}); err != nil {
			t.Fatal(err)
		}
		select {
		case a := <-got:
			if a != txt {
				t.Fatalf("took %q, want %q", a, txt)
			}
		case <-time.After(time.Second):
			t.Fatalf("%q enqueued while every worker waited was not taken", txt)
		}
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(time.Second):
		t.Fatal("Close did not wake the workers blocked in Take")
	}
}

func TestQueueRejectsCorruptWAL(t *testing.T) {
	wal := store.NewMemLog()
	if _, err := wal.Append([]byte{recVersion, opEnqueue, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewQueue(wal, 0); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", err)
	}
}

func TestExtract(t *testing.T) {
	got, trunc := Extract("  <p>Senate&nbsp;passes   the&amp;budget</p>\n<script>junk()</script> bill ", 0)
	if trunc {
		t.Fatal("unexpected truncation")
	}
	if got != "Senate passes the&budget junk() bill" {
		t.Fatalf("extract = %q", got)
	}
	long, trunc := Extract("wéwéwéwéwé", 5)
	if !trunc {
		t.Fatal("expected truncation")
	}
	if long != "wéwé" && long != "wéw" {
		// 5 bytes cuts inside the second é (2-byte rune): must back up to
		// a rune boundary, never emit invalid UTF-8.
		t.Fatalf("truncated = %q", long)
	}
	for _, r := range long {
		if r == 0xFFFD {
			t.Fatalf("invalid UTF-8 after truncation: %q", long)
		}
	}
}
