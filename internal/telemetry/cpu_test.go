package telemetry

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// spin burns CPU on the calling thread for at least d of wall time.
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += uint64(i) * x
		}
	}
	return x
}

// TestCPUCounterChargesThreadCPU: Time charges the CPU fn burns and not
// the time it sleeps, and the counter renders as a seconds counter.
func TestCPUCounterChargesThreadCPU(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("thread CPU clock is read only on Linux")
	}
	r := New()
	c := r.CPUCounterVec("trustnews_test_cpu_seconds_total", "cpu", "stage").With("busy")
	c.Time(func() { spin(20 * time.Millisecond) })
	busy := c.Value()
	if busy < 10*time.Millisecond || busy > time.Second {
		t.Fatalf("20 ms of spinning charged %v", busy)
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
	spin(20 * time.Millisecond)
	if got := ProcessCPU() - before; got < 10*time.Millisecond {
		t.Fatalf("20 ms of spinning moved process CPU by %v", got)
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
