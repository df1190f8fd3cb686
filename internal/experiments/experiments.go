// Package experiments regenerates the paper-anchored experiments of
// DESIGN.md's index (E1–E16, E5w, E10a–c). The paper is a position paper
// with no numeric tables, so each runner quantifies one of its figures or
// falsifiable claims; EXPERIMENTS.md records the qualitative expectation
// next to the measured output.
//
// All is the registry: each experiment is declared there once, with its
// ID and its runner at Full and at Small size. Every runner is
// deterministic from its seed and returns a Table. cmd/benchrunner renders
// the tables, BenchmarkExperiments times every entry at Small size, and
// TestExperiments checks every entry's claim at Small size.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
)

// Size is the scale an experiment runs at.
type Size int

const (
	// Full is the size EXPERIMENTS.md reports.
	Full Size = iota
	// Small is cheap enough for every `go test` run, yet large enough for
	// the claim TestExperiments checks.
	Small
)

// Experiment is one registry entry.
type Experiment struct {
	ID  string
	Run func(Size) (*Table, error)
}

// entry declares an experiment: its runner, the config it runs at Full
// size, and the edit that shrinks that config to Small.
func entry[C any](id string, run func(C) (*Table, error), full func() C, small func(*C)) Experiment {
	return Experiment{ID: id, Run: func(s Size) (*Table, error) {
		cfg := full()
		if s == Small {
			small(&cfg)
		}
		t, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		t.ID = id
		return t, nil
	}}
}

// All returns every experiment, in ID order.
func All() []Experiment {
	return []Experiment{
		entry("E1", runE1, defaultE1, func(c *e1Config) { c.Items, c.Voters = 6, 3 }),
		entry("E2", runE2, defaultE2, func(c *e2Config) { c.Epochs, c.ItemsPerEpoch = 6, 4 }),
		entry("E3", runE3, defaultE3, func(c *e3Config) { c.Assets = 100 }),
		entry("E4", runE4, defaultE4, func(c *e4Config) { c.ItemCounts = []int{100, 1000} }),
		entry("E5", runE5, defaultE5, func(c *e5Config) {
			c.Facts, c.WarmupItems, c.EvalItems, c.Voters = 30, 16, 30, 12
			c.BiasedFracs = []float64{0, 0.45}
		}),
		// The full 20-voter crowd stays: the bias pressure at 45% depends
		// on the bloc being a near-majority.
		entry("E5w", runE5Weights, defaultE5Weights, func(c *e5WeightsConfig) {
			c.Base.Facts, c.Base.WarmupItems, c.Base.EvalItems = 30, 16, 30
			c.Settings = slices.DeleteFunc(c.Settings, func(s weightSetting) bool {
				return s.Name != "crowd_heavy" && s.Name != "uniform"
			})
		}),
		entry("E6", runE6, defaultE6, func(c *e6Config) { c.Depths, c.Chains = []int{2, 8}, 25 }),
		entry("E7", runE7, defaultE7, func(c *e7Config) {
			c.Net.Users, c.Net.Bots, c.Net.Cyborgs = 1200, 80, 40
			c.Runs = 6
		}),
		// E8 is cheap at full size.
		entry("E8", runE8, defaultE8, func(*e8Config) {}),
		entry("E9", runE9, defaultE9, func(c *e9Config) { c.Items, c.Voters = 40, 10 }),
		entry("E10a", runE10Consensus, defaultE10, func(c *e10Config) {
			c.ValidatorCounts, c.Blocks = []int{4, 8}, 2
		}),
		entry("E10b", runE10Parallel, defaultE10, func(c *e10Config) { c.ParallelTxs = 256 }),
		entry("E10c", runE10Batching, defaultE10c, func(c *e10cConfig) {
			c.BatchSizes, c.TotalTxs = []int{1, 256}, 512
		}),
		entry("E11", runE11, defaultE11, func(c *e11Config) { c.Factual, c.Fake = 400, 400 }),
		entry("E12", runE12, defaultE12, func(c *e12Config) { c.Samples = 20 }),
		entry("E13", runE13, defaultE13, func(c *e13Config) {
			c.Base.CascadesPerClass, c.Windows = 50, []int{1, 3}
		}),
		entry("E14", runE14, defaultE14, func(c *e14Config) {
			c.Net.Users, c.Net.Bots, c.Net.Cyborgs = 1200, 80, 40
			c.Budgets, c.Runs = []int{60}, 10
		}),
		entry("E15", runE15, defaultE15, func(c *e15Config) { c.Heights, c.TxsPerBlock = []int{5, 50}, 20 }),
		entry("E16", runE16, defaultE16, func(c *e16Config) {
			c.Articles, c.Syndicated, c.Sentences = 6, 3, 30
			c.LossRates = []float64{0, 0.05}
		}),
	}
}

// Select returns the entries a comma-separated list of IDs names, in
// registry order, or every entry for an empty list. Case does not matter,
// and an ID also names its lettered variants: E10 selects E10a, E10b and
// E10c; E5 selects E5 and E5w. An ID that names nothing is an error.
func Select(only string) ([]Experiment, error) {
	all := All()
	want := map[string]bool{} // requested ID -> matched an entry
	for _, id := range strings.Split(only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			want[id] = false
		}
	}
	if len(want) == 0 {
		return all, nil
	}
	var out []Experiment
	for _, e := range all {
		id := strings.ToUpper(e.ID)
		family := strings.TrimRightFunc(id, unicode.IsLetter)
		hit := false
		for _, name := range []string{id, family} {
			if _, ok := want[name]; ok {
				want[name], hit = true, true
			}
		}
		if hit {
			out = append(out, e)
		}
	}
	var unknown []string
	for id, matched := range want {
		if !matched {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		valid := make([]string, len(all))
		for i, e := range all {
			valid[i] = e.ID
		}
		return nil, fmt.Errorf("no experiment %s; valid IDs: %s",
			strings.Join(unknown, ", "), strings.Join(valid, " "))
	}
	return out, nil
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper's qualitative expectation
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cols ...string) {
	t.Rows = append(t.Rows, cols)
}

// Render pretty-prints the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "| "+strings.Join(parts, " | ")+" |")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f formats a float at 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1 formats a float at 1 decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// d formats an int.
func d(v int) string { return fmt.Sprintf("%d", v) }
