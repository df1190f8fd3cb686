package telemetry

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// spinSink keeps spin's arithmetic from being optimized away.
var spinSink uint64

// spin burns d of CPU on the calling goroutine's thread, which it locks
// for the purpose, and returns the thread CPU it spent, at least d. It
// counts CPU, not wall time, so a contended scheduler that grants the
// thread less of the CPU makes it run longer, not spend less; a thread
// that cannot get d within 5 s of wall time fails the test.
func spin(t *testing.T, d time.Duration) time.Duration {
	t.Helper()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, deadline := ThreadCPU(), time.Now().Add(5*time.Second)
	x := uint64(1)
	for ThreadCPU()-start < d {
		if time.Now().After(deadline) {
			t.Fatalf("%v of thread CPU not granted within 5 s", d)
		}
		for i := 0; i < 1000; i++ {
			x += uint64(i) * x
		}
	}
	spinSink = x
	return ThreadCPU() - start
}

// TestCPUCounterChargesThreadCPU: Time charges the CPU fn burns and not
// the time it sleeps, and the counter renders as a seconds counter.
func TestCPUCounterChargesThreadCPU(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("thread CPU clock is read only on Linux")
	}
	r := New()
	c := r.CPUCounterVec("trustnews_test_cpu_seconds_total", "cpu", "stage").With("busy")
	var spent time.Duration
	c.Time(func() { spent = spin(t, 20*time.Millisecond) })
	busy := c.Value()
	if busy < spent || busy > spent+time.Second {
		t.Fatalf("spinning for %v of thread CPU charged %v", spent, busy)
	}
	c.Time(func() { time.Sleep(50 * time.Millisecond) })
	if slept := c.Value() - busy; slept > 10*time.Millisecond {
		t.Fatalf("a 50 ms sleep charged %v of CPU", slept)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE trustnews_test_cpu_seconds_total counter\n",
		`trustnews_test_cpu_seconds_total{stage="busy"} 0.0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestProcessCPUFunc: a CPUFunc series is read at render time, and the
// process clock covers what one of its threads burned.
func TestProcessCPUFunc(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("process CPU is read only on Linux")
	}
	before := ProcessCPU()
	spent := spin(t, 20*time.Millisecond)
	// getrusage reports user and system time in whole microseconds.
	if got := ProcessCPU() - before; got+2*time.Microsecond < spent {
		t.Fatalf("spinning for %v of thread CPU moved process CPU by %v", spent, got)
	}
	r := New()
	r.CPUFunc("trustnews_test_process_cpu_seconds_total", "process", func() time.Duration { return 1500 * time.Millisecond })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "trustnews_test_process_cpu_seconds_total 1.5\n") {
		t.Fatalf("exposition:\n%s", b.String())
	}
}

// TestNilCPUCounterRunsFn: a nil counter (no registry) still runs the
// work and charges nothing.
func TestNilCPUCounterRunsFn(t *testing.T) {
	var r *Registry
	c := r.CPUCounter("x", "")
	ran := false
	c.Time(func() { ran = true })
	r.CPUFunc("x", "", ProcessCPU)
	if !ran || c.Value() != 0 || r.CPUCounterVec("x", "", "a").With("b") != nil {
		t.Fatal("nil CPU counter misbehaved")
	}
}
