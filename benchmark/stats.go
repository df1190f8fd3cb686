package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// median sorts a copy of v and returns its 50th percentile (0 when empty).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailSteps are the candidate tail percentiles, highest first.
var tailSteps = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest of tailSteps that still leaves at
// least ten samples beyond it, so the reported tail is a measurement
// and not one outlier. It returns 50 when even p75 is unsupported.
func tailPercentile(n int) float64 {
	for _, p := range tailSteps {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// samples is a concurrency-safe latency sample set, in milliseconds.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(ms float64) {
	s.mu.Lock()
	s.v = append(s.v, ms)
	s.mu.Unlock()
}

// sorted returns an ascending copy.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// SLO limits in milliseconds per check kind. They sit far from the seed
// medians so slo_ok_share does not flicker with ordinary noise.
var sloLimitMs = map[string]float64{
	"search":     100,
	"blob":       100,
	"rank":       100,
	"ack":        250,
	"commit":     2000,
	"searchable": 3000,
}

// sloCounter counts latency-limit checks. A refused, failed, dropped or
// lost operation misses every limit it would have been checked against.
type sloCounter struct {
	mu        sync.Mutex
	ok, total int
	misses    []string // the first few, for the run log
}

// observe records one check of kind that finished in ms; failed marks an
// operation that did not succeed at all (429, error, drop, lost).
func (c *sloCounter) observe(kind string, ms float64, failed bool) {
	c.mu.Lock()
	c.total++
	if !failed && ms <= sloLimitMs[kind] {
		c.ok++
	} else if len(c.misses) < 5 {
		c.misses = append(c.misses, fmt.Sprintf("%s %.0fms failed=%t", kind, ms, failed))
	}
	c.mu.Unlock()
}

func (c *sloCounter) share() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.total == 0 {
		return 0
	}
	return float64(c.ok) / float64(c.total)
}
