package commitbus

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// recorder is a test subscriber accumulating the heights it saw.
type recorder struct {
	mu      sync.Mutex
	name    string
	heights []uint64
	failAt  map[uint64]error
}

func newRecorder(name string) *recorder {
	return &recorder{name: name, failAt: make(map[uint64]error)}
}

func (r *recorder) Name() string { return r.name }

func (r *recorder) OnCommit(ev CommitEvent) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err, ok := r.failAt[ev.Height]; ok {
		return err
	}
	r.heights = append(r.heights, ev.Height)
	return nil
}

func (r *recorder) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.Marshal(r.heights)
}

func (r *recorder) Restore(data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.heights = nil
	if len(data) == 0 {
		return nil
	}
	return json.Unmarshal(data, &r.heights)
}

func (r *recorder) seen() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.heights...)
}

func publishN(t *testing.T, b *Bus, n int) {
	t.Helper()
	for h := 0; h < n; h++ {
		if err := b.Publish(CommitEvent{Height: uint64(h)}); err != nil {
			t.Fatalf("publish height %d: %v", h, err)
		}
	}
}

func TestBusOrderedDelivery(t *testing.T) {
	b := New()
	r1, r2 := newRecorder("a"), newRecorder("b")
	if err := b.Register(r1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(r2); err != nil {
		t.Fatal(err)
	}
	publishN(t, b, 5)
	for _, r := range []*recorder{r1, r2} {
		got := r.seen()
		if len(got) != 5 {
			t.Fatalf("%s saw %d events", r.name, len(got))
		}
		for i, h := range got {
			if h != uint64(i) {
				t.Fatalf("%s out of order: %v", r.name, got)
			}
		}
	}
	if head, ok := b.Head(); !ok || head != 4 {
		t.Fatalf("head=%d ok=%v", head, ok)
	}
}

func TestBusRejectsDuplicateName(t *testing.T) {
	b := New()
	if err := b.Register(newRecorder("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(newRecorder("x")); !errors.Is(err, ErrDuplicateSubscriber) {
		t.Fatalf("err=%v want ErrDuplicateSubscriber", err)
	}
}

func TestBusRejectsOutOfOrder(t *testing.T) {
	b := New()
	if err := b.Publish(CommitEvent{Height: 3}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("first publish at height 3: err=%v", err)
	}
	publishN(t, b, 2)
	if err := b.Publish(CommitEvent{Height: 3}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("gap accepted: err=%v", err)
	}
	if err := b.Publish(CommitEvent{Height: 1}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("replayed height accepted: err=%v", err)
	}
}

func TestBusErrorAndLagAccounting(t *testing.T) {
	b := New()
	bad := newRecorder("bad")
	bad.failAt[1] = errors.New("index wedged")
	good := newRecorder("good")
	if err := b.Register(bad); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(good); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(CommitEvent{Height: 0}); err != nil {
		t.Fatal(err)
	}
	err := b.Publish(CommitEvent{Height: 1})
	if err == nil || !strings.Contains(err.Error(), "index wedged") {
		t.Fatalf("subscriber error not surfaced: %v", err)
	}
	// A failing subscriber must not block others.
	if got := good.seen(); len(got) != 2 {
		t.Fatalf("good subscriber starved: %v", got)
	}
	if err := b.Publish(CommitEvent{Height: 2}); err != nil {
		t.Fatal(err)
	}
	stats := b.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats len=%d", len(stats))
	}
	if s := stats[0]; s.Name != "bad" || s.Delivered != 2 || s.Errors != 1 || s.Lag != 1 ||
		s.LastHeight != 2 || !strings.Contains(s.LastError, "index wedged") {
		t.Fatalf("bad stats: %+v", s)
	}
	if s := stats[1]; s.Delivered != 3 || s.Errors != 0 || s.Lag != 0 || s.LastHeight != 2 {
		t.Fatalf("good stats: %+v", s)
	}
}

func TestBusSnapshotRestoreRoundtrip(t *testing.T) {
	b := New()
	r := newRecorder("r")
	if err := b.Register(r); err != nil {
		t.Fatal(err)
	}
	publishN(t, b, 4)
	blobs, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Fresh bus + subscriber restored from the snapshot resumes at the
	// snapshot height.
	b2 := New()
	r2 := newRecorder("r")
	if err := b2.Register(r2); err != nil {
		t.Fatal(err)
	}
	if err := b2.Restore(blobs, 4); err != nil {
		t.Fatal(err)
	}
	if got := r2.seen(); len(got) != 4 {
		t.Fatalf("restored state: %v", got)
	}
	if err := b2.Publish(CommitEvent{Height: 3}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("pre-restore height accepted: %v", err)
	}
	if err := b2.Publish(CommitEvent{Height: 4}); err != nil {
		t.Fatal(err)
	}
	if got := r2.seen(); len(got) != 5 || got[4] != 4 {
		t.Fatalf("tail replay after restore: %v", got)
	}
	// Restore counters were reset: only the tail counts as delivered.
	if s := b2.Stats()[0]; s.Delivered != 1 || s.Lag != 0 {
		t.Fatalf("post-restore stats: %+v", s)
	}
}

func TestBusRestoreRejectsMissingSubscriber(t *testing.T) {
	b := New()
	if err := b.Register(newRecorder("present")); err != nil {
		t.Fatal(err)
	}
	err := b.Restore(map[string][]byte{"other": nil}, 1)
	if !errors.Is(err, ErrUnknownSubscriber) {
		t.Fatalf("err=%v want ErrUnknownSubscriber", err)
	}
}

// A checkpoint written when another subscriber was registered — one since
// removed, like the expert miner — still restores: its blob is ignored.
func TestBusRestoreIgnoresUnclaimedBlob(t *testing.T) {
	b := New()
	r := newRecorder("r")
	if err := b.Register(r); err != nil {
		t.Fatal(err)
	}
	publishN(t, b, 2)
	blobs, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blobs["expert-miner"] = []byte(`{"topics":{"politics":["item-0"]}}`)

	b2 := New()
	r2 := newRecorder("r")
	if err := b2.Register(r2); err != nil {
		t.Fatal(err)
	}
	if err := b2.Restore(blobs, 2); err != nil {
		t.Fatalf("restore with an unclaimed blob: %v", err)
	}
	if got := r2.seen(); len(got) != 2 {
		t.Fatalf("restored state: %v", got)
	}
}

// TestBusConcurrentStatsReads exercises Stats/Head/Snapshot racing with
// Publish (run under -race in tier-1).
func TestBusConcurrentStatsReads(t *testing.T) {
	b := New()
	r := newRecorder("r")
	if err := b.Register(r); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = b.Stats()
			_, _ = b.Head()
			_, _ = b.Snapshot()
		}
	}()
	for h := 0; h < 200; h++ {
		if err := b.Publish(CommitEvent{Height: uint64(h)}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
