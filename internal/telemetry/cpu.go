package telemetry

import (
	"runtime"
	"sync/atomic"
	"time"
)

// CPUCounter accumulates CPU time spent in one kind of work, rendered in
// seconds as a counter (a trustnews_..._cpu_seconds_total series). Time
// charges a span of work with the calling thread's CPU clock, so the
// counter holds what that work cost the node, not how long it took: a
// span that waits on a disk or a lock adds only the CPU it burned.
type CPUCounter struct {
	ns atomic.Int64
	// read, when set, supplies the value instead of ns (CPUFunc).
	read func() time.Duration
}

// Time runs fn and charges the CPU time the calling thread spent in it.
// The goroutine is locked to its OS thread for the span, so the thread
// clock read before and after fn belongs to fn alone. On a platform
// without a thread clock (see ThreadCPU) it charges nothing.
func (c *CPUCounter) Time(fn func()) {
	if c == nil {
		fn()
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := ThreadCPU()
	fn()
	if d := ThreadCPU() - start; d > 0 {
		c.ns.Add(int64(d))
	}
}

// Value returns the CPU time charged so far (0 on a nil counter).
func (c *CPUCounter) Value() time.Duration {
	switch {
	case c == nil:
		return 0
	case c.read != nil:
		return c.read()
	}
	return time.Duration(c.ns.Load())
}

// CPUCounter returns the unlabeled CPU counter with the given name.
func (r *Registry) CPUCounter(name, help string) *CPUCounter {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindCPU, nil, nil).with(nil).cpu
}

// CPUFunc registers an unlabeled CPU counter whose value is read when the
// registry is rendered (the process's own CPU time, ProcessCPU).
func (r *Registry) CPUFunc(name, help string, read func() time.Duration) {
	if r == nil {
		return
	}
	s := r.fam(name, help, kindCPU, nil, nil).with(nil)
	s.cpu.read = read
}

// CPUCounterVec is a CPU counter family labeled by a fixed set of labels.
type CPUCounterVec struct{ f *family }

// CPUCounterVec returns the labeled CPU counter family with the given name.
func (r *Registry) CPUCounterVec(name, help string, labels ...string) *CPUCounterVec {
	if r == nil {
		return nil
	}
	return &CPUCounterVec{f: r.fam(name, help, kindCPU, labels, nil)}
}

// With returns the CPU counter for one combination of label values.
func (v *CPUCounterVec) With(vals ...string) *CPUCounter {
	if v == nil {
		return nil
	}
	return v.f.with(vals).cpu
}
