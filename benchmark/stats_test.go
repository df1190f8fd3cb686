package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10},
	} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of unsorted input: got %v", got)
	}
}

// The reported tail is the highest percentile that still has ten samples
// beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A 429, an error, a dropped arrival and a lost transaction all miss the
// limit, whatever their latency; a slow success misses it too.
func TestSLOCountsRefusedDroppedLostAsMisses(t *testing.T) {
	var c sloCounter
	c.observe("search", 1, false)    // ok
	c.observe("search", 101, false)  // too slow
	c.observe("ack", 0.5, true)      // 429 or error: fast, still a miss
	c.observe("ack", 0, true)        // dropped arrival
	c.observe("commit", 0, true)     // acked but lost
	c.observe("commit", 1999, false) // ok
	if c.total != 6 || c.ok != 2 {
		t.Fatalf("ok %d of %d, want 2 of 6", c.ok, c.total)
	}
	if got := c.share(); math.Abs(got-2.0/6) > 1e-12 {
		t.Fatalf("share %v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if math.Abs(q1-2.75) > 1e-9 || math.Abs(q3-8.25) > 1e-9 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three = %v, %v", q1, q3)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	s := parseProm(`# HELP x y
h_bucket{c="a",le="0.001"} 10
h_bucket{c="a",le="0.01"} 30
h_bucket{c="a",le="+Inf"} 40
h_sum{c="a"} 1
h_count{c="a"} 40
n_total{outcome="hit"} 3
n_total{outcome="miss"} 1
`)
	// 20 of 40 samples: halfway through the (0.001, 0.01] bucket.
	if got := s.histQuantile("h", 0.5); math.Abs(got-0.0055) > 1e-9 {
		t.Errorf("p50 = %v, want 0.0055", got)
	}
	if got := s.sum("n_total", `outcome="hit"`); got != 3 {
		t.Errorf("labelled sum = %v", got)
	}
	if got := s.sum("n_total"); got != 4 {
		t.Errorf("family sum = %v", got)
	}
}
