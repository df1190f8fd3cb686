// Package telemetry is the platform's observability substrate: an
// allocation-conscious metrics registry (atomic counters, gauges and
// bucketed histograms, optionally labeled) plus lightweight span tracing
// (see trace.go). It is stdlib-only by design — the registry renders the
// Prometheus text exposition format directly, so a production deployment
// can point a Prometheus scraper at GET /v1/metrics without any client
// library, and DESIGN.md documents the substitution point.
//
// Metric names follow the convention trustnews_<subsystem>_<name>, with
// the usual Prometheus suffixes (_total for counters, _seconds for
// latency histograms).
//
// Everything is nil-safe: a nil *Registry hands out nil instruments, and
// every instrument method no-ops on a nil receiver. Library users who
// leave platform.Config.Telemetry unset therefore pay one predictable
// nil-check branch per instrumentation site and nothing else; hot paths
// cache their instrument handles so the labeled-family map lookup happens
// once at wiring time, not per event.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta (CAS loop, safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative-style buckets with
// configurable upper bounds plus an implicit +Inf bucket. Observations
// are lock-free (one atomic add per bucket + sum/count).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS
}

// DurationBuckets is the default bounds set for latency histograms, in
// seconds: 1µs up to 10s, roughly logarithmic.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable; a binary search costs more in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the upper bounds and per-bucket (non-cumulative)
// counts, the +Inf bucket last.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	if h == nil {
		return nil, nil
	}
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return append([]float64(nil), h.bounds...), counts
}

// ---------------------------------------------------------------------------
// Families and the registry.
// ---------------------------------------------------------------------------

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	// kindCPU is a counter of CPU time, rendered in seconds (CPUCounter).
	kindCPU
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCPU:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (label values → instrument) entry of a family.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
	cpu       *CPUCounter
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64

	mu     sync.RWMutex
	series map[string]*series
}

func (f *family) with(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x1f")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelVals: append([]string(nil), vals...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	case kindCPU:
		s.cpu = &CPUCounter{}
	}
	f.series[key] = s
	return s
}

// Registry holds metric families and the span tracer. The zero value is
// not usable; create with New. A nil *Registry is the disabled mode:
// every constructor returns a nil instrument.
type Registry struct {
	mu     sync.RWMutex
	fams   map[string]*family
	order  []string
	tracer *Tracer
}

// New creates an empty registry with a default-capacity tracer.
func New() *Registry {
	return &Registry{fams: make(map[string]*family), tracer: NewTracer(0)}
}

// Tracer returns the registry's span tracer (nil on a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// fam returns (creating if needed) the named family. Re-registering a
// name with a different kind or label arity is a programming error.
func (r *Registry) fam(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s/%d labels (was %s/%d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: make(map[string]*series),
	}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter returns the unlabeled counter with the given name, creating it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindCounter, nil, nil).with(nil).c
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindGauge, nil, nil).with(nil).g
}

// Histogram returns the unlabeled histogram with the given name. bounds
// nil means DurationBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindHistogram, nil, bounds).with(nil).h
}

// CounterVec is a counter family labeled by a fixed set of label names.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.fam(name, help, kindCounter, labels, nil)}
}

// With returns the counter for one combination of label values.
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.with(vals).c
}

// GaugeVec is a gauge family labeled by a fixed set of label names.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.fam(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for one combination of label values.
func (v *GaugeVec) With(vals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.with(vals).g
}

// HistogramVec is a histogram family labeled by a fixed set of labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given name.
// bounds nil means DurationBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.fam(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for one combination of label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.with(vals).h
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------

// PrometheusContentType is the Content-Type of the text exposition format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders {k="v",...}; extra appends one more pair (le for
// histogram buckets).
func labelString(names, vals []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(vals[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format, families in name order and series in label order, so output is
// deterministic and diffable. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				f.mu.RUnlock()
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			f.mu.RUnlock()
			return err
		}
		var err error
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(s.g.Value()))
			case kindHistogram:
				err = writeHistogram(w, f, s)
			case kindCPU:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(s.cpu.Value().Seconds()))
			}
			if err != nil {
				f.mu.RUnlock()
				return err
			}
		}
		f.mu.RUnlock()
	}
	return nil
}

func writeHistogram(w io.Writer, f *family, s *series) error {
	bounds, counts := s.h.Buckets()
	cum := uint64(0)
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labels, s.labelVals, "le", formatFloat(b)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.name, labelString(f.labels, s.labelVals, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(s.h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.name, labelString(f.labels, s.labelVals, "", ""), s.h.Count())
	return err
}
