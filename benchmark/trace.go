package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call made by the benchmark into a layer. Spans are
// recorded from the benchmark's own files, around the calls; spans inside
// the daemons are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since trace start
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// record adds a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// open starts a span that encloses later ones; close ends it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.record(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, parent, start, end)
	return end.Sub(start)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// spanCost measures what recording n spans costs on this machine now, by
// recording n of them into a scratch tracer.
func spanCost(n int) time.Duration {
	scratch := newTracer("calibrate")
	now := time.Now()
	start := time.Now()
	for i := 0; i < n; i++ {
		scratch.record("calibrate", 0, now, time.Now())
	}
	return time.Since(start)
}
