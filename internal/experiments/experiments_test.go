package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// cell parses a table cell as float.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d); rows=%v", tbl.ID, row, col, tbl.Rows)
	}
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d)=%q: %v", tbl.ID, row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Claim: "c", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T: demo", "paper claim: c", "| a", "| 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// claims holds each registry entry's check on its Small-size table.
var claims = map[string]func(t *testing.T, tbl *Table){
	"E1": func(t *testing.T, tbl *Table) {
		if len(tbl.Rows) < 5 {
			t.Fatalf("rows=%d", len(tbl.Rows))
		}
		// Every stage must have a positive per-op cost.
		for r := 0; r < 4; r++ {
			if cell(t, tbl, r, 3) <= 0 {
				t.Fatalf("stage %d has non-positive cost", r)
			}
		}
	},
	"E2": func(t *testing.T, tbl *Table) {
		last := len(tbl.Rows) - 1
		honestBal := cell(t, tbl, last, 1)
		biasedBal := cell(t, tbl, last, 2)
		honestRep := cell(t, tbl, last, 3)
		biasedRep := cell(t, tbl, last, 4)
		if honestBal <= biasedBal {
			t.Fatalf("honest balance %.1f <= biased %.1f", honestBal, biasedBal)
		}
		if honestRep <= biasedRep {
			t.Fatalf("honest rep %.3f <= biased %.3f", honestRep, biasedRep)
		}
		// The economy must drain the biased cohort below its initial grant.
		if biasedBal >= 1000 {
			t.Fatalf("biased balance %.1f did not drop", biasedBal)
		}
	},
	"E3": func(t *testing.T, tbl *Table) {
		// Path length equals stage count.
		for i := range tbl.Rows {
			if stages, got := cell(t, tbl, i, 0), cell(t, tbl, i, 2); got != stages {
				t.Fatalf("stages=%.0f path len=%f", stages, got)
			}
		}
	},
	"E4": func(t *testing.T, tbl *Table) {
		// Bigger graphs, deeper chains.
		if cell(t, tbl, 1, 2) < cell(t, tbl, 0, 2) {
			t.Fatalf("max depth did not grow: %v", tbl.Rows)
		}
		// Most items trace to a root (70% of roots are factual).
		if cell(t, tbl, 1, 3) < 0.3 {
			t.Fatalf("rooted fraction too low: %v", tbl.Rows)
		}
	},
	"E5": func(t *testing.T, tbl *Table) {
		// Unbiased: majority is fine.
		if cell(t, tbl, 0, 1) < 0.7 {
			t.Fatalf("unbiased majority F1=%v", tbl.Rows[0])
		}
		// At 45% bias, combined must beat majority clearly.
		majority := cell(t, tbl, 1, 1)
		combined := cell(t, tbl, 1, 4)
		if combined <= majority {
			t.Fatalf("combined %.3f <= majority %.3f under bias", combined, majority)
		}
		if combined < 0.6 {
			t.Fatalf("combined F1=%.3f under bias; mechanism collapsed", combined)
		}
	},
	"E5w": func(t *testing.T, tbl *Table) {
		// Crowd-heavy: excellent against a known bloc, degraded against a
		// fresh bloc (reputations flat -> weighted crowd ~ majority).
		row := slices.IndexFunc(tbl.Rows, func(r []string) bool { return r[0] == "crowd_heavy" })
		if row < 0 {
			t.Fatalf("no crowd_heavy row: %v", tbl.Rows)
		}
		warm := cell(t, tbl, row, 4)
		cold := cell(t, tbl, row, 5)
		if warm < 0.9 {
			t.Fatalf("crowd-heavy known-bloc F1=%.3f", warm)
		}
		if cold >= warm {
			t.Fatalf("crowd-heavy cold F1 %.3f >= warm %.3f; cold-start fragility missing", cold, warm)
		}
	},
	"E6": func(t *testing.T, tbl *Table) {
		for i := range tbl.Rows {
			if got := cell(t, tbl, i, 2); got < 0.8 {
				t.Fatalf("depth row %d originator recall=%.3f", i, got)
			}
			if got := cell(t, tbl, i, 3); got < 0.9 {
				t.Fatalf("depth row %d rooted=%.3f", i, got)
			}
		}
	},
	"E7": func(t *testing.T, tbl *Table) {
		last := len(tbl.Rows) - 1
		fakeFree := cell(t, tbl, last, 1)
		factFree := cell(t, tbl, last, 2)
		fakeInt := cell(t, tbl, last, 3)
		factInt := cell(t, tbl, last, 4)
		if fakeFree <= factFree {
			t.Fatalf("unchecked fake %.1f <= factual %.1f", fakeFree, factFree)
		}
		if factInt <= fakeInt {
			t.Fatalf("intervened factual %.1f <= fake %.1f", factInt, fakeInt)
		}
		if fakeInt >= fakeFree {
			t.Fatalf("intervention did not reduce fake reach: %.1f vs %.1f", fakeInt, fakeFree)
		}
	},
	"E8": func(t *testing.T, tbl *Table) {
		for i := range tbl.Rows {
			if got := cell(t, tbl, i, 3); got < 0.8 {
				t.Fatalf("row %d precision@k=%.3f", i, got)
			}
		}
	},
	"E9": func(t *testing.T, tbl *Table) {
		// Promotions shrink as the threshold rises.
		loose := cell(t, tbl, 0, 2)
		strict := cell(t, tbl, len(tbl.Rows)-1, 2)
		if strict > loose {
			t.Fatalf("strict threshold promoted more: %v", tbl.Rows)
		}
		// The strictest threshold must stay precise.
		if p := cell(t, tbl, len(tbl.Rows)-1, 5); p < 0.8 && strict > 0 {
			t.Fatalf("strict precision=%.3f", p)
		}
	},
	"E10a": func(t *testing.T, tbl *Table) {
		for i := range tbl.Rows {
			if cell(t, tbl, i, 1) <= 0 || cell(t, tbl, i, 2) <= 0 {
				t.Fatalf("non-positive latency: %v", tbl.Rows[i])
			}
		}
		// BFT message complexity grows with n.
		if cell(t, tbl, 1, 3) <= cell(t, tbl, 0, 3) {
			t.Fatalf("bft messages did not grow: %v", tbl.Rows)
		}
	},
	"E10b": func(t *testing.T, tbl *Table) {
		// Re-execution count grows with conflict rate.
		first := cell(t, tbl, 0, 5)
		last := cell(t, tbl, len(tbl.Rows)-1, 5)
		if last <= first {
			t.Fatalf("conflict count did not grow: %v", tbl.Rows)
		}
	},
	"E10c": func(t *testing.T, tbl *Table) {
		small := cell(t, tbl, 0, 3)
		big := cell(t, tbl, 1, 3)
		if big <= small {
			t.Fatalf("batch 256 throughput %.0f <= batch 1 %.0f", big, small)
		}
		// Block counts match the arithmetic.
		if cell(t, tbl, 0, 1) != 512 || cell(t, tbl, 1, 1) != 2 {
			t.Fatalf("block counts wrong: %v", tbl.Rows)
		}
	},
	"E11": func(t *testing.T, tbl *Table) {
		if len(tbl.Rows) != 3 {
			t.Fatalf("rows=%d", len(tbl.Rows))
		}
		// LR beats the lexicon baseline on AUC.
		lr := cell(t, tbl, 1, 5)
		emo := cell(t, tbl, 2, 5)
		if lr <= emo {
			t.Fatalf("LR AUC %.3f <= lexicon %.3f", lr, emo)
		}
		// Nothing is perfect — the paper's "AI alone is insufficient".
		for i := 0; i < 3; i++ {
			if cell(t, tbl, i, 1) >= 0.999 {
				t.Fatalf("suspiciously perfect classifier: %v", tbl.Rows[i])
			}
		}
	},
	"E12": func(t *testing.T, tbl *Table) {
		// Zero strength: reference detection fires on nothing.
		if cell(t, tbl, 0, 1) != 0 {
			t.Fatalf("reference false positives: %v", tbl.Rows[0])
		}
		// Any nonzero strength: reference catches everything.
		for i := 1; i < len(tbl.Rows); i++ {
			if cell(t, tbl, i, 1) != 1 {
				t.Fatalf("reference missed tamper at row %d: %v", i, tbl.Rows[i])
			}
		}
		// Blind score grows with strength.
		if cell(t, tbl, len(tbl.Rows)-1, 3) <= cell(t, tbl, 1, 3) {
			t.Fatalf("blind score not increasing: %v", tbl.Rows)
		}
	},
	"E13": func(t *testing.T, tbl *Table) {
		for i := range tbl.Rows {
			if auc := cell(t, tbl, i, 3); auc < 0.7 {
				t.Fatalf("window row %d AUC=%.3f", i, auc)
			}
		}
	},
	"E14": func(t *testing.T, tbl *Table) {
		// Rows: blanket, hub, personalized for budget 60.
		blanketMisled := cell(t, tbl, 0, 2)
		persMisled := cell(t, tbl, 2, 2)
		if persMisled >= blanketMisled {
			t.Fatalf("personalized misled %.1f >= blanket %.1f", persMisled, blanketMisled)
		}
		persAccepts := cell(t, tbl, 2, 5)
		blanketAccepts := cell(t, tbl, 0, 5)
		if persAccepts <= blanketAccepts {
			t.Fatalf("personalized accept rate %.3f <= blanket %.3f", persAccepts, blanketAccepts)
		}
	},
	"E15": func(t *testing.T, tbl *Table) {
		for i := range tbl.Rows {
			if ratio := cell(t, tbl, i, 3); ratio >= 0.2 {
				t.Fatalf("row %d storage ratio=%.3f; headers should be far smaller", i, ratio)
			}
			if us := cell(t, tbl, i, 5); us <= 0 {
				t.Fatalf("row %d verify time %.1f", i, us)
			}
		}
		// Proof size is O(log txs), essentially independent of chain length
		// (±a few bytes from the payload's decimal block number).
		if diff := cell(t, tbl, 0, 4) - cell(t, tbl, 1, 4); diff > 8 || diff < -8 {
			t.Fatalf("proof size should not depend on chain length: %v", tbl.Rows)
		}
	},
	"E16": func(t *testing.T, tbl *Table) {
		// Rows: inline, off-chain, then one fetch row per loss rate.
		inlinePer := cell(t, tbl, 0, 4)
		offPer := cell(t, tbl, 1, 4)
		shrink := cell(t, tbl, 1, 5)
		if shrink < 5 {
			t.Fatalf("on-chain bytes/article shrink %.1fx (inline %.1f, off-chain %.1f); want >=5x",
				shrink, inlinePer, offPer)
		}
		// Syndicated copies dedup against the originals.
		if dedup := cell(t, tbl, 1, 6); dedup <= 1 {
			t.Fatalf("dedup ratio %.3f; verbatim copies should share chunks", dedup)
		}
		for i := 2; i < len(tbl.Rows); i++ {
			if avg := cell(t, tbl, i, 7); avg <= 0 {
				t.Fatalf("fetch row %d avg latency %.1f", i, avg)
			}
			if max := cell(t, tbl, i, 8); max < cell(t, tbl, i, 7) {
				t.Fatalf("fetch row %d max %.1f < avg", i, max)
			}
		}
	},
}

// TestExperiments runs every registry entry once at Small size and checks
// its claim.
func TestExperiments(t *testing.T) {
	all := All()
	if len(all) != len(claims) {
		t.Errorf("%d experiments but %d claim checks", len(all), len(claims))
	}
	for _, e := range all {
		t.Run(e.ID, func(t *testing.T) {
			check, ok := claims[e.ID]
			if !ok {
				t.Fatal("no claim check")
			}
			tbl, err := e.Run(Small)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table ID %q", tbl.ID)
			}
			check(t, tbl)
		})
	}
}

func TestSelect(t *testing.T) {
	ids := func(only string) []string {
		t.Helper()
		sel, err := Select(only)
		if err != nil {
			t.Fatalf("Select(%q): %v", only, err)
		}
		out := make([]string, len(sel))
		for i, e := range sel {
			out[i] = e.ID
		}
		return out
	}
	for only, want := range map[string][]string{
		"E10":      {"E10a", "E10b", "E10c"},
		"e5":       {"E5", "E5w"},
		"E10B, e1": {"E1", "E10b"},
	} {
		if got := ids(only); !slices.Equal(got, want) {
			t.Errorf("Select(%q) = %v, want %v", only, got, want)
		}
	}
	if got := len(ids("")); got != len(All()) {
		t.Errorf("Select(\"\") = %d entries, want all %d", got, len(All()))
	}
	_, err := Select("E5,E99")
	if err == nil || !strings.Contains(err.Error(), "E99") || !strings.Contains(err.Error(), "E10c") {
		t.Fatalf("Select(\"E5,E99\") error = %v; want one naming E99 and the valid IDs", err)
	}
}

// BenchmarkExperiments times every registry entry at Small size.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(Small); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
