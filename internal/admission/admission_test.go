package admission

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// ---------------------------------------------------------------------------
// Construction validation: zero-capacity configs are errors, not policies.
// ---------------------------------------------------------------------------

func TestZeroCapacityRejectedAtConstruction(t *testing.T) {
	if _, err := NewGate(GateConfig{MaxConcurrent: 0, MaxQueue: 4}); err == nil {
		t.Fatal("zero MaxConcurrent accepted")
	}
	if _, err := NewGate(GateConfig{MaxConcurrent: 2, MaxQueue: -1}); err == nil {
		t.Fatal("negative MaxQueue accepted")
	}
	// The controller propagates gate construction errors.
	if _, err := NewController(&Config{Mempool: GateConfig{MaxConcurrent: 0}}, nil); err == nil {
		t.Fatal("controller accepted zero-capacity mempool gate")
	}
	cfg := DefaultConfig()
	cfg.BlobRead.MaxConcurrent = -3
	if _, err := NewController(cfg, nil); err == nil {
		t.Fatal("controller accepted negative-capacity blob gate")
	}
}

// ---------------------------------------------------------------------------
// Gate semantics.
// ---------------------------------------------------------------------------

func TestGateQueueFullSheds(t *testing.T) {
	g, err := NewGate(GateConfig{MaxConcurrent: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(); err != nil { // takes the only slot
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		queued <- g.Acquire() // occupies the only queue seat
	}()
	waitFor(t, func() bool { return g.Waiting() == 1 })
	if err := g.Acquire(); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("third request should shed queue-full, got %v", err)
	}
	g.Release() // waiter gets the slot
	if err := <-queued; err != nil {
		t.Fatalf("queued request should be admitted: %v", err)
	}
	g.Release()
}

func TestGateZeroQueueShedsWhenBusy(t *testing.T) {
	g, err := NewGate(GateConfig{MaxConcurrent: 1, MaxQueue: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("zero-queue gate should shed immediately when busy, got %v", err)
	}
	g.Release()
	if err := g.Acquire(); err != nil {
		t.Fatalf("freed slot should admit: %v", err)
	}
	g.Release()
}

// TestCoDelShedsOnStandingQueue drives the controller directly: queue
// delays above target for a full interval flip it into the dropping
// state, arrivals shed at increasing rate, and one below-target
// observation resets it.
func TestCoDelShedsOnStandingQueue(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	c := codel{target: 5 * time.Millisecond, interval: 100 * time.Millisecond}

	// Below-target delays never shed.
	c.observe(now, time.Millisecond)
	if c.shed(now) {
		t.Fatal("shed with below-target delay")
	}
	// Above-target delays only begin shedding after a full interval.
	c.observe(now, 10*time.Millisecond)
	if c.shed(now.Add(50 * time.Millisecond)) {
		t.Fatal("shed before interval elapsed")
	}
	now = now.Add(110 * time.Millisecond)
	c.observe(now, 10*time.Millisecond)
	if !c.shed(now) {
		t.Fatal("standing queue for a full interval must shed")
	}
	// Control law: the second shed fires one full interval later, the
	// third interval/sqrt(2) after that — spacing shrinks as the
	// standing queue persists.
	if c.shed(now.Add(10 * time.Millisecond)) {
		t.Fatal("shed fired before its scheduled spacing")
	}
	now = now.Add(100*time.Millisecond + time.Millisecond)
	if !c.shed(now) {
		t.Fatal("second shed should fire after one interval")
	}
	spacing := time.Duration(float64(100*time.Millisecond) / math.Sqrt(2))
	if !c.shed(now.Add(spacing + time.Millisecond)) {
		t.Fatal("third shed should fire at interval/sqrt(2)")
	}
	// Recovery: one below-target observation ends the dropping state.
	c.observe(now, time.Millisecond)
	if c.shed(now.Add(time.Hour)) {
		t.Fatal("shed after recovery")
	}
}

// TestGateCoDelEndToEnd holds a slot long enough that a queued request
// observes an above-target delay, then checks the gate sheds arrivals
// while the standing queue persists. The fake clock makes the delays
// deterministic.
func TestGateCoDelEndToEnd(t *testing.T) {
	clk := newFakeClock()
	g, err := NewGate(GateConfig{MaxConcurrent: 1, MaxQueue: 8, Target: 5 * time.Millisecond, Interval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.SetClock(clk.Now)

	if err := g.Acquire(); err != nil { // occupy the slot
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Acquire() }()
	waitFor(t, func() bool { return g.Waiting() == 1 })
	// The waiter has been queued since t0; release after a long
	// above-target wait.
	clk.Advance(60 * time.Millisecond)
	g.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// One above-target observation arms the controller; a second one a
	// full interval later flips it to dropping.
	go func() { done <- g.Acquire() }()
	waitFor(t, func() bool { return g.Waiting() == 1 })
	clk.Advance(60 * time.Millisecond)
	g.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Dropping state: the second waiter still holds the slot, so the
	// next arrival is contended and sheds via CoDel even though the
	// queue has plenty of room.
	err = g.Acquire()
	if !errors.Is(err, ErrOverCapacity) || !strings.Contains(err.Error(), "delay above target") {
		t.Fatalf("expected CoDel shed, got %v", err)
	}
	g.Release()
}

// ---------------------------------------------------------------------------
// Concurrency: shed accounting must be exact under racing acquirers.
// ---------------------------------------------------------------------------

// TestConcurrentShedCountingRaceFree hammers one small gate from many
// goroutines and checks the books balance exactly: every Acquire is
// either admitted (and released) or returned ErrOverCapacity, and the
// metrics agree with the callers' own tallies. Run under -race this
// also proves the gate's internal state is data-race-free.
func TestConcurrentShedCountingRaceFree(t *testing.T) {
	reg := telemetry.New()
	m := NewMetrics(reg)
	g, err := NewGate(GateConfig{MaxConcurrent: 2, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.Instrument(m, "test")

	const goroutines = 16
	const perG = 500
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				err := g.Acquire()
				switch {
				case err == nil:
					admitted.Add(1)
					g.Release()
				case errors.Is(err, ErrOverCapacity):
					shed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := admitted.Load() + shed.Load(); got != goroutines*perG {
		t.Fatalf("lost requests: admitted %d + shed %d = %d, want %d",
			admitted.Load(), shed.Load(), got, goroutines*perG)
	}
	if g.Waiting() != 0 {
		t.Fatalf("queue not drained: %d waiting", g.Waiting())
	}
	if got := m.accepted.With("test").Value(); got != uint64(admitted.Load()) {
		t.Fatalf("accepted metric %d != callers' tally %d", got, admitted.Load())
	}
	metricShed := m.shed.With("test", ShedQueueFull).Value() + m.shed.With("test", ShedCoDel).Value()
	if metricShed != uint64(shed.Load()) {
		t.Fatalf("shed metric %d != callers' tally %d", metricShed, shed.Load())
	}
}

// ---------------------------------------------------------------------------
// Nil-safety and controller plumbing.
// ---------------------------------------------------------------------------

func TestNilAdmissionIsNoOp(t *testing.T) {
	var g *Gate
	if err := g.Acquire(); err != nil {
		t.Fatal("nil gate must admit")
	}
	g.Release()
	var c *Controller
	if err := c.AcquireMempool(); err != nil {
		t.Fatal("nil controller must admit mempool")
	}
	c.ReleaseMempool()
	if err := c.AcquireBlobRead(); err != nil {
		t.Fatal("nil controller must admit blob reads")
	}
	c.ReleaseBlobRead()
	if err := c.AcquireHTTP(); err != nil {
		t.Fatal("nil controller must admit at the edge")
	}
	c.ReleaseHTTP()
	ctrl, err := NewController(nil, nil)
	if err != nil || ctrl != nil {
		t.Fatalf("nil config should yield nil controller, got %v, %v", ctrl, err)
	}
}

// TestHTTPGateOptional pins the edge gate's zero-value-disables
// contract: the resource gates are mandatory, the HTTP gate is not.
func TestHTTPGateOptional(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HTTP = GateConfig{}
	ctrl, err := NewController(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.HTTPGate() != nil {
		t.Fatal("zero HTTP config must disable the edge gate")
	}
	// Disabled gate admits without limit.
	for i := 0; i < 100; i++ {
		if err := ctrl.AcquireHTTP(); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	// Configured gate enforces its bound: one slot, zero queue.
	cfg2 := DefaultConfig()
	cfg2.HTTP = GateConfig{MaxConcurrent: 1, MaxQueue: 0}
	ctrl2, err := NewController(cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl2.HTTPGate() == nil {
		t.Fatal("configured HTTP gate missing")
	}
	if err := ctrl2.AcquireHTTP(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl2.AcquireHTTP(); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("second acquire: %v, want ErrOverCapacity", err)
	}
	ctrl2.ReleaseHTTP()
	// An invalid (negative) HTTP config is still rejected.
	cfg3 := DefaultConfig()
	cfg3.HTTP = GateConfig{MaxConcurrent: -1, MaxQueue: 4}
	if _, err := NewController(cfg3, nil); err == nil {
		t.Fatal("negative HTTP concurrency must be rejected")
	}
}

func TestControllerMetricsExposition(t *testing.T) {
	reg := telemetry.New()
	ctrl, err := NewController(DefaultConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.AcquireMempool(); err != nil {
		t.Fatal(err)
	}
	ctrl.ReleaseMempool()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"trustnews_admission_accepted_total",
		`trustnews_admission_accepted_total{component="mempool"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// waitFor polls cond briefly (for goroutine scheduling, not time
// semantics — those run on the fake clock).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
