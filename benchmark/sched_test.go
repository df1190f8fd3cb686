package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server stall must inflate the latency of the operations that were due
// while it lasted: they are timed from their due time, not from when a
// request slot freed up.
func TestStallInflatesLaterOpsLatency(t *testing.T) {
	const stall = 200 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	s := newScheduler(1)
	var mu sync.Mutex
	lat := make(map[int]time.Duration)
	t0 := time.Now().Add(10 * time.Millisecond)
	const ops = 10
	for i := 0; i < ops; i++ {
		s.at(t0.Add(time.Duration(i)*10*time.Millisecond), func(w *worker, due time.Time) {
			if _, err := call(w.hc, http.MethodGet, srv.URL, "", nil); err != nil {
				t.Error(err)
			}
			mu.Lock()
			lat[i] = time.Since(due)
			mu.Unlock()
		})
	}
	for !s.idle() {
		time.Sleep(5 * time.Millisecond)
	}
	s.close()
	if len(lat) != ops {
		t.Fatalf("%d of %d ops ran", len(lat), ops)
	}
	// Op i was due 10*i ms into the stall, so it waited at least the rest.
	for i := 1; i < ops; i++ {
		want := stall - time.Duration(i)*10*time.Millisecond - 5*time.Millisecond
		if lat[i] < want {
			t.Errorf("op %d latency %v hides the stall (want >= %v)", i, lat[i], want)
		}
	}
	if late := s.late.sorted(); late[len(late)-1] < 100 {
		t.Errorf("generator lateness not reported: max %.1f ms", late[len(late)-1])
	}
}

// However many tasks are due at once, requests in flight never exceed the
// number of workers.
func TestInFlightNeverExceedsWorkers(t *testing.T) {
	const workers = 2
	var cur, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	}))
	defer srv.Close()

	s := newScheduler(workers)
	now := time.Now()
	var done atomic.Int64
	for i := 0; i < 100; i++ {
		fn := func(w *worker, _ time.Time) {
			_, _ = call(w.hc, http.MethodGet, srv.URL, "", nil)
			done.Add(1)
		}
		if i%2 == 0 {
			s.at(now, fn)
		} else {
			s.pollAt(now, fn)
		}
	}
	for done.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	s.close()
	if p := peak.Load(); p > workers {
		t.Fatalf("%d requests in flight with %d workers", p, workers)
	}
}

// An arrival that cannot be sent within dropAfter is dropped and reported,
// never sent late and never silently skipped.
func TestLateArrivalIsDropped(t *testing.T) {
	s := newScheduler(1)
	s.dropAfter = 20 * time.Millisecond
	var drops, ran atomic.Int64
	s.onDrop = func() { drops.Add(1) }
	now := time.Now()
	s.at(now, func(*worker, time.Time) { time.Sleep(60 * time.Millisecond); ran.Add(1) })
	s.at(now.Add(time.Millisecond), func(*worker, time.Time) { ran.Add(1) })
	for !s.idle() {
		time.Sleep(time.Millisecond)
	}
	s.close()
	if ran.Load() != 1 || drops.Load() != 1 || s.dropped.Load() != 1 {
		t.Fatalf("ran %d, onDrop %d, dropped %d; want 1, 1, 1", ran.Load(), drops.Load(), s.dropped.Load())
	}
}
