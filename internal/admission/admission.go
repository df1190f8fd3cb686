// Package admission is the platform-wide overload defense: it decides,
// at every service edge, whether a request is allowed to consume node
// resources *before* any work is done on its behalf. The paper assumes
// the platform absorbs a continuous firehose of news from millions of
// users (§VI–§VII); what it does not say — and what any web-scale
// ingestion system lives or dies by — is what happens when offered load
// exceeds capacity. Without admission control a blockchain node fails
// the worst possible way: queues grow without bound, every accepted
// request waits behind the whole backlog, tail latency explodes, and
// goodput collapses exactly when demand peaks.
//
// The package provides two composable pieces:
//
//   - Gate: a bounded-concurrency, bounded-queue admission gate with a
//     CoDel-style queue-delay controller — the adaptive defense. When
//     the minimum queue delay stays above target for a full interval,
//     the gate starts shedding arrivals at an increasing rate until
//     delay recovers, so accepted requests keep a bounded wait even
//     under sustained overload ("shed before collapse").
//   - Controller: the bundle a platform node carries — one gate each for
//     mempool admission, blob reads, ingest and the HTTP edge, and the
//     shared trustnews_admission_* metrics.
//
// Every shed surfaces as the typed ErrOverCapacity, which the HTTP
// gateway maps to 429 Too Many Requests with a Retry-After header: the
// client-visible contract is "back off and retry", never a timeout.
//
// Everything is nil-safe in the package's usual style: a nil *Gate or nil
// *Controller admits everything at zero cost, so library users who never
// configure admission pay one branch per edge.
package admission

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/telemetry"
)

// ErrOverCapacity is returned for every shed decision: the node is at
// capacity and refused the request before doing work for it. The HTTP
// gateway maps it to 429 + Retry-After.
var ErrOverCapacity = errors.New("admission: over capacity")

// Config assembles a node's admission policy. The zero value is not
// useful — use DefaultConfig as the starting point and override.
type Config struct {
	// Mempool gates transaction admission (Platform.Submit): it bounds
	// concurrent signature verifications and the queue waiting for one.
	Mempool GateConfig
	// BlobRead gates blob fetches at the API edge (GET/POST /v1/blobs):
	// chunk hashing and Merkle verification are CPU work worth bounding.
	BlobRead GateConfig
	// Ingest gates article enqueues into the ingestion pipeline (POST
	// /v1/ingest and any other queue producer): the queue itself is
	// bounded, but the gate sheds bursts before they reach the WAL
	// append. The zero value disables this gate.
	Ingest GateConfig
	// HTTP gates whole-request concurrency at the API edge, covering
	// every route except health and metrics (observability must survive
	// overload). Unlike the resource gates above, it bounds the total
	// in-service request count, which is what actually grows when the
	// host runs out of CPU: no inner gate can see scheduler queueing,
	// but a whole-request gate's sojourn time is a faithful proxy for
	// it, so its CoDel controller sheds before latency collapses. The
	// zero value disables this gate (resource gates stay mandatory).
	HTTP GateConfig
}

// DefaultConfig returns a policy scaled to the host: gate widths follow
// GOMAXPROCS (admission work is CPU-bound), and queues hold a few batches.
func DefaultConfig() *Config {
	cores := runtime.GOMAXPROCS(0)
	return &Config{
		Mempool: GateConfig{
			MaxConcurrent: 2 * cores,
			MaxQueue:      16 * cores,
		},
		BlobRead: GateConfig{
			MaxConcurrent: 4 * cores,
			MaxQueue:      16 * cores,
		},
		Ingest: GateConfig{
			MaxConcurrent: 2 * cores,
			MaxQueue:      32 * cores,
		},
		// Wide enough that the edge gate only binds when the host is
		// genuinely out of CPU; the queue holds a few milliseconds of
		// work so CoDel has something to regulate.
		HTTP: GateConfig{
			MaxConcurrent: 4 * cores,
			MaxQueue:      64 * cores,
		},
	}
}

// Controller is the admission bundle one platform node carries. A nil
// *Controller admits everything (the un-configured node).
type Controller struct {
	mempool  *Gate
	blobRead *Gate
	ingest   *Gate // nil when Config.Ingest is zero
	http     *Gate // nil when Config.HTTP is zero
	metrics  *Metrics
}

// NewController builds the gates from cfg and instruments them on reg
// (nil reg leaves the instruments as no-ops). A nil cfg yields a nil
// controller: admission disabled.
func NewController(cfg *Config, reg *telemetry.Registry) (*Controller, error) {
	if cfg == nil {
		return nil, nil
	}
	m := NewMetrics(reg)
	mp, err := NewGate(cfg.Mempool)
	if err != nil {
		return nil, fmt.Errorf("admission: mempool gate: %w", err)
	}
	mp.Instrument(m, "mempool")
	br, err := NewGate(cfg.BlobRead)
	if err != nil {
		return nil, fmt.Errorf("admission: blob-read gate: %w", err)
	}
	br.Instrument(m, "blob")
	var ig *Gate
	if cfg.Ingest != (GateConfig{}) {
		ig, err = NewGate(cfg.Ingest)
		if err != nil {
			return nil, fmt.Errorf("admission: ingest gate: %w", err)
		}
		ig.Instrument(m, "ingest")
	}
	var hg *Gate
	if cfg.HTTP != (GateConfig{}) {
		hg, err = NewGate(cfg.HTTP)
		if err != nil {
			return nil, fmt.Errorf("admission: http gate: %w", err)
		}
		hg.Instrument(m, "http")
	}
	return &Controller{mempool: mp, blobRead: br, ingest: ig, http: hg, metrics: m}, nil
}

// AcquireMempool admits one transaction-submission into the mempool
// pipeline (ErrOverCapacity when shed). Pair with ReleaseMempool.
func (c *Controller) AcquireMempool() error {
	if c == nil {
		return nil
	}
	return c.mempool.Acquire()
}

// ReleaseMempool returns the mempool-admission slot.
func (c *Controller) ReleaseMempool() {
	if c != nil {
		c.mempool.Release()
	}
}

// AcquireBlobRead admits one blob fetch (ErrOverCapacity when shed).
// Pair with ReleaseBlobRead.
func (c *Controller) AcquireBlobRead() error {
	if c == nil {
		return nil
	}
	return c.blobRead.Acquire()
}

// ReleaseBlobRead returns the blob-read slot.
func (c *Controller) ReleaseBlobRead() {
	if c != nil {
		c.blobRead.Release()
	}
}

// AcquireIngest admits one article enqueue into the ingestion pipeline
// (ErrOverCapacity when shed; always admits when the ingest gate is not
// configured). Pair with ReleaseIngest.
func (c *Controller) AcquireIngest() error {
	if c == nil {
		return nil
	}
	return c.ingest.Acquire()
}

// ReleaseIngest returns the ingest slot.
func (c *Controller) ReleaseIngest() {
	if c != nil {
		c.ingest.Release()
	}
}

// AcquireHTTP admits one request into the API edge (ErrOverCapacity
// when shed; always admits when the HTTP gate is not configured). Pair
// with ReleaseHTTP.
func (c *Controller) AcquireHTTP() error {
	if c == nil {
		return nil
	}
	return c.http.Acquire()
}

// ReleaseHTTP returns the edge slot.
func (c *Controller) ReleaseHTTP() {
	if c != nil {
		c.http.Release()
	}
}

// HTTPGate exposes the API-edge gate (nil when unconfigured).
func (c *Controller) HTTPGate() *Gate {
	if c == nil {
		return nil
	}
	return c.http
}

// Metrics exposes the shared instrument bundle (nil on a nil
// controller or when built without a registry).
func (c *Controller) Metrics() *Metrics {
	if c == nil {
		return nil
	}
	return c.metrics
}

// ---------------------------------------------------------------------------
// Shared metrics.
// ---------------------------------------------------------------------------

// Shed reasons used as the trustnews_admission_shed_total reason label.
const (
	ShedQueueFull = "queue_full" // bounded queue at capacity
	ShedCoDel     = "codel"      // queue-delay controller in dropping state
)

// Metrics is the trustnews_admission_* instrument family, shared by every
// gate of one node so operators see all admission decisions under one
// prefix, labeled by component.
type Metrics struct {
	accepted *telemetry.CounterVec
	shed     *telemetry.CounterVec
	depth    *telemetry.GaugeVec
	delay    *telemetry.HistogramVec
}

// NewMetrics registers the admission family on reg (nil reg returns a
// Metrics whose instruments are all no-ops — still usable).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		accepted: reg.CounterVec("trustnews_admission_accepted_total", "Requests admitted past an admission edge, by component.", "component"),
		shed:     reg.CounterVec("trustnews_admission_shed_total", "Requests shed at an admission edge, by component and reason.", "component", "reason"),
		depth:    reg.GaugeVec("trustnews_admission_queue_depth", "Requests currently waiting at an admission gate, by component.", "component"),
		delay:    reg.HistogramVec("trustnews_admission_queue_delay_seconds", "Time spent waiting for an admission slot, by component.", nil, "component"),
	}
}

// Accepted counts one admitted request for component (nil-safe).
func (m *Metrics) Accepted(component string) {
	if m != nil {
		m.accepted.With(component).Inc()
	}
}

// Shed counts one shed request for component with a reason (nil-safe).
func (m *Metrics) Shed(component, reason string) {
	if m != nil {
		m.shed.With(component, reason).Inc()
	}
}
