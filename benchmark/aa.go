package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method). v needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// worse returns by what share of a the value b is worse than a, given
// which direction is better (negative when b is better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runAA runs two interleaved sets of n passes over every workload on the
// same binary (A B A B ...), every run with its own seed, and prints per
// metric and workload both medians, how much worse the second is, the
// spread of all runs and the bound. The cells of the unresolved list are
// printed beneath with the bound issue 12 gave them. It fails if the
// medians of an end-to-end metric differ by more than its bound on a
// workload BENCHMARK.json lists; a by-hand workload's rows say so but do
// not decide the exit code, since BENCHMARK.json promises nothing for it.
func runAA(env *benchEnv, n int, seed int64, seconds int) error {
	type cell struct{ a, b []float64 }
	cells := make(map[string]*cell)
	key := func(w, m string) string { return w + "/" + m }
	listed := append(append([]metricDef(nil), endToEnd...), unresolved...)
	for pass := 0; pass < 2*n; pass++ {
		for _, spec := range workloads {
			res, err := runWorkload(env, spec, seed+int64(pass), seconds, false)
			if err != nil {
				return fmt.Errorf("pass %d %s: %w", pass, spec.name, err)
			}
			fmt.Fprintf(os.Stderr, "aa: pass %d/%d %s done (failed %d of %d)\n", pass+1, 2*n, spec.name, res.failed, res.attempted)
			for _, d := range listed {
				c := cells[key(spec.name, d.name)]
				if c == nil {
					c = &cell{}
					cells[key(spec.name, d.name)] = c
				}
				if pass%2 == 0 {
					c.a = append(c.a, res.metrics[d.name])
				} else {
					c.b = append(c.b, res.metrics[d.name])
				}
			}
		}
	}
	fmt.Printf("A/A: two interleaved sets of %d passes, %d s windows, seeds %d..%d\n\n", n, seconds, seed, seed+int64(2*n)-1)
	fmt.Println("| workload | metric | unit | median A | median B | B worse by | spread (IQR/median) | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	var over []string
	for _, spec := range workloads {
		for i, d := range listed {
			c := cells[key(spec.name, d.name)]
			ma, mb := median(c.a), median(c.b)
			if ma == 0 && mb == 0 {
				continue // the workload issues no such operation
			}
			diff := worse(ma, mb, d.better)
			all := append(append([]float64(nil), c.a...), c.b...)
			spread := math.NaN()
			if len(all) >= 2 {
				q1, q3 := quartiles(all)
				spread = (q3 - q1) / math.Abs(median(all))
			}
			verdict := "ok"
			switch {
			case i >= len(endToEnd):
				verdict = "per layer, no bound"
			case math.Abs(diff) > d.bound && spec.byHand:
				verdict = "OVER (by hand, not gated)"
			case math.Abs(diff) > d.bound:
				verdict = "OVER"
				over = append(over, key(spec.name, d.name))
			case spread > d.bound:
				verdict = "unresolved: spread over the bound"
			case math.Abs(diff) > d.bound/2:
				verdict = "ok (over half the bound)"
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.0f%% | %s |\n",
				spec.name, d.name, d.unit, ma, mb, 100*diff, 100*spread, 100*d.bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A difference exceeds the bound for %s", strings.Join(over, ", "))
	}
	return nil
}
