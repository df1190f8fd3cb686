package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
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

func TestE1PipelineRuns(t *testing.T) {
	cfg := DefaultE1()
	cfg.Items, cfg.Voters = 6, 3
	tbl, err := RunE1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 5 {
		t.Fatalf("rows=%d", len(tbl.Rows))
	}
	// Every stage must have a positive per-op cost.
	for r := 0; r < 4; r++ {
		if cell(t, tbl, r, 3) <= 0 {
			t.Fatalf("stage %d has non-positive cost", r)
		}
	}
}

func TestE2EconomyDirection(t *testing.T) {
	cfg := DefaultE2()
	cfg.Epochs, cfg.ItemsPerEpoch = 6, 4
	tbl, err := RunE2(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE3ProcessTraceFlat(t *testing.T) {
	cfg := DefaultE3()
	cfg.Assets = 100
	tbl, err := RunE3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Path length equals stage count.
	for i, stages := range cfg.StageCounts {
		if got := cell(t, tbl, i, 2); got != float64(stages) {
			t.Fatalf("stages=%d path len=%f", stages, got)
		}
	}
}

func TestE4GraphScales(t *testing.T) {
	cfg := E4Config{ItemCounts: []int{100, 1000}, Seed: 4}
	tbl, err := RunE4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger graphs, deeper chains.
	if cell(t, tbl, 1, 2) < cell(t, tbl, 0, 2) {
		t.Fatalf("max depth did not grow: %v", tbl.Rows)
	}
	// Most items trace to a root (70% of roots are factual).
	if cell(t, tbl, 1, 3) < 0.3 {
		t.Fatalf("rooted fraction too low: %v", tbl.Rows)
	}
}

func TestE5BiasResistanceDirection(t *testing.T) {
	cfg := DefaultE5()
	cfg.Facts, cfg.WarmupItems, cfg.EvalItems, cfg.Voters = 30, 16, 30, 12
	cfg.BiasedFracs = []float64{0, 0.45}
	tbl, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE6AccountabilityHigh(t *testing.T) {
	cfg := E6Config{Depths: []int{2, 8}, Chains: 25, Seed: 6}
	tbl, err := RunE6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Depths {
		if got := cell(t, tbl, i, 2); got < 0.8 {
			t.Fatalf("depth row %d originator recall=%.3f", i, got)
		}
		if got := cell(t, tbl, i, 3); got < 0.9 {
			t.Fatalf("depth row %d rooted=%.3f", i, got)
		}
	}
}

func TestE7ContainmentDirection(t *testing.T) {
	cfg := DefaultE7()
	cfg.Net.Users, cfg.Net.Bots, cfg.Net.Cyborgs = 1200, 80, 40
	cfg.Runs = 6
	tbl, err := RunE7(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE8ExpertPrecision(t *testing.T) {
	tbl, err := RunE8(DefaultE8())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if got := cell(t, tbl, i, 3); got < 0.8 {
			t.Fatalf("row %d precision@k=%.3f", i, got)
		}
	}
}

func TestE9ThresholdTradeoff(t *testing.T) {
	cfg := DefaultE9()
	cfg.Items, cfg.Voters = 40, 10
	tbl, err := RunE9(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE10ParallelSpeedupShape(t *testing.T) {
	cfg := DefaultE10()
	cfg.ParallelTxs = 256
	tbl, err := RunE10Parallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Re-execution count grows with conflict rate.
	first := cell(t, tbl, 0, 6)
	last := cell(t, tbl, len(tbl.Rows)-1, 6)
	if last <= first {
		t.Fatalf("conflict count did not grow: %v", tbl.Rows)
	}
}

func TestE10ConsensusScales(t *testing.T) {
	if testing.Short() {
		t.Skip("consensus sweep")
	}
	cfg := DefaultE10()
	cfg.ValidatorCounts = []int{4, 8}
	cfg.Blocks = 2
	tbl, err := RunE10Consensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if cell(t, tbl, i, 1) <= 0 || cell(t, tbl, i, 2) <= 0 {
			t.Fatalf("non-positive latency: %v", tbl.Rows[i])
		}
	}
	// BFT message complexity grows with n.
	if cell(t, tbl, 1, 3) <= cell(t, tbl, 0, 3) {
		t.Fatalf("bft messages did not grow: %v", tbl.Rows)
	}
}

func TestE11ClassifierTable(t *testing.T) {
	cfg := DefaultE11()
	cfg.Factual, cfg.Fake = 400, 400
	tbl, err := RunE11(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE12MediaShape(t *testing.T) {
	cfg := DefaultE12()
	cfg.Samples = 20
	tbl, err := RunE12(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE13PredictionImprovesWithWindow(t *testing.T) {
	cfg := DefaultE13()
	cfg.Base.CascadesPerClass = 50
	cfg.Windows = []int{1, 3}
	tbl, err := RunE13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if auc := cell(t, tbl, i, 3); auc < 0.7 {
			t.Fatalf("window row %d AUC=%.3f", i, auc)
		}
	}
}

func TestE14PersonalizedWins(t *testing.T) {
	cfg := DefaultE14()
	cfg.Net.Users, cfg.Net.Bots, cfg.Net.Cyborgs = 1200, 80, 40
	cfg.Budgets = []int{60}
	cfg.Runs = 10
	tbl, err := RunE14(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE5WeightsColdStartFragility(t *testing.T) {
	cfg := DefaultE5Weights()
	cfg.Base.Facts, cfg.Base.WarmupItems, cfg.Base.EvalItems = 30, 16, 30
	cfg.Settings = []WeightSetting{
		{"crowd_heavy", crowdHeavyWeights()},
		{"uniform", uniformWeights()},
	}
	tbl, err := RunE5Weights(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Crowd-heavy: excellent against a known bloc, degraded against a
	// fresh bloc (reputations flat -> weighted crowd ~ majority).
	warm := cell(t, tbl, 0, 4)
	cold := cell(t, tbl, 0, 5)
	if warm < 0.9 {
		t.Fatalf("crowd-heavy known-bloc F1=%.3f", warm)
	}
	if cold >= warm {
		t.Fatalf("crowd-heavy cold F1 %.3f >= warm %.3f; cold-start fragility missing", cold, warm)
	}
}

func TestE15LightClientCosts(t *testing.T) {
	cfg := E15Config{Heights: []int{5, 50}, TxsPerBlock: 20}
	tbl, err := RunE15(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE16OffChainShrinksChainAndSurvivesLoss(t *testing.T) {
	cfg := DefaultE16()
	cfg.Articles, cfg.Syndicated, cfg.Sentences = 6, 3, 30
	cfg.LossRates = []float64{0, 0.05}
	tbl, err := RunE16(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestE10BatchingAmortizes(t *testing.T) {
	cfg := E10cConfig{BatchSizes: []int{1, 256}, TotalTxs: 512, Seed: 10}
	tbl, err := RunE10Batching(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := cell(t, tbl, 0, 3)
	big := cell(t, tbl, 1, 3)
	if big <= small {
		t.Fatalf("batch 256 throughput %.0f <= batch 1 %.0f", big, small)
	}
	// Block counts match the arithmetic.
	if cell(t, tbl, 0, 1) != 512 || cell(t, tbl, 1, 1) != 2 {
		t.Fatalf("block counts wrong: %v", tbl.Rows)
	}
}

func TestE17TelemetryOverheadSmall(t *testing.T) {
	cfg := DefaultE17()
	cfg.Txs, cfg.Blobs, cfg.Reads, cfg.Rounds = 512, 16, 400, 2
	tbl, err := RunE17Telemetry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows=%d want 3 (off/enabled/enabled+scrape)", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if tps := cell(t, tbl, i, 1); tps <= 0 {
			t.Fatalf("%s: commit throughput %.1f", row[0], tps)
		}
		if us := cell(t, tbl, i, 3); us <= 0 {
			t.Fatalf("%s: blob read latency %.2f", row[0], us)
		}
	}
	// The enabled registry must stay cheap. The bound is loose because the
	// verification pipeline (E18) made the commit loop ~4x faster, so the
	// same absolute per-event cost and the same scheduler noise are a much
	// larger fraction of the now-short run — full-size best-of-3 runs land
	// anywhere from ~0% to ~12% on a single shared core.
	if over := cell(t, tbl, 1, 2); over > 40 {
		t.Fatalf("enabled telemetry costs %.1f%% commit throughput; want small", over)
	}
}

func TestE19ChaosSweepSmall(t *testing.T) {
	cfg := DefaultE19()
	cfg.Window = 600 * time.Millisecond
	tbl, err := RunE19Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows=%d want 4 (clean/duplicate/corrupt/corrupt+crash)", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if committed := cell(t, tbl, i, 1); committed <= 0 {
			t.Fatalf("%s: committed %.0f heights", row[0], committed)
		}
		if rec := cell(t, tbl, i, 5); rec <= 0 {
			t.Fatalf("%s: recovery %.1f ms", row[0], rec)
		}
	}
	// The faulted cells must actually have seen faults and rejected them.
	for i := 1; i < 4; i++ {
		if cell(t, tbl, i, 2) == 0 {
			t.Fatalf("%s: no duplicated messages", tbl.Rows[i][0])
		}
		if cell(t, tbl, i, 4) == 0 {
			t.Fatalf("%s: no rejected votes", tbl.Rows[i][0])
		}
	}
}

func TestE20WireTransportSmall(t *testing.T) {
	cfg := DefaultE20()
	cfg.Txs, cfg.Senders = 80, 8
	tbl, err := RunE20Wire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows=%d want 2 (simnet, tcp-loopback)", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if committed := cell(t, tbl, i, 1); committed != 80 {
			t.Fatalf("%s: committed %.0f txs, want 80", row[0], committed)
		}
		if rate := cell(t, tbl, i, 4); rate <= 0 {
			t.Fatalf("%s: tx rate %.0f", row[0], rate)
		}
	}
	// Only the TCP cell moves real bytes, and a committed tx cannot cost
	// fewer wire bytes than its own encoding.
	if tbl.Rows[0][5] != "-" {
		t.Fatalf("simnet cell reports bytes: %q", tbl.Rows[0][5])
	}
	if perTx := cell(t, tbl, 1, 6); perTx < float64(cfg.PayloadBytes) {
		t.Fatalf("tcp wire bytes per tx %.0f below payload size %d", perTx, cfg.PayloadBytes)
	}
}

func TestE22IngestSmall(t *testing.T) {
	cfg := DefaultE22()
	cfg.DocCounts = []int{500, 2000}
	cfg.HotDocs, cfg.HotQueries = 1500, 600
	cfg.Shards = []int{1, 16}
	cfg.CommitTxs, cfg.IngestArticles = 120, 40
	tbl, err := RunE22(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: one per doc count, locked_hot, one per shard count,
	// sharded_idle, commit_idle, commit_with_ingest, commit_hot_pct,
	// recovery.
	wantRows := len(cfg.DocCounts) + 1 + len(cfg.Shards) + 1 + 3 + 1
	if len(tbl.Rows) != wantRows {
		t.Fatalf("rows=%d want %d: %v", len(tbl.Rows), wantRows, tbl.Rows)
	}
	// Scale sweep: every document indexed, and per-document heap must
	// not grow with corpus size (sub-linear index growth).
	for i, n := range cfg.DocCounts {
		if got := cell(t, tbl, i, 1); got != float64(n) {
			t.Fatalf("scale row %d indexed %.0f docs want %d", i, got, n)
		}
	}
	small := cell(t, tbl, 0, 5)
	big := cell(t, tbl, len(cfg.DocCounts)-1, 5)
	if big > small*1.5 {
		t.Fatalf("heap per doc grew with corpus: %.1f -> %.1f bytes", small, big)
	}
	// Every latency cell produced positive tails.
	for r := len(cfg.DocCounts); r < len(cfg.DocCounts)+len(cfg.Shards)+2; r++ {
		if p99 := cell(t, tbl, r, 4); p99 <= 0 {
			t.Fatalf("row %s p99=%.3f", tbl.Rows[r][0], p99)
		}
	}
	// Commit cells ran; the hot/idle ratio is positive (the 95% floor is
	// asserted on full-size benchrunner output, not this reduced cell).
	ratioRow := len(tbl.Rows) - 2
	if pct := cell(t, tbl, ratioRow, 2); pct <= 0 {
		t.Fatalf("commit hot pct %.1f", pct)
	}
	// Recovery: everything recovered, nothing acked lost, no duplicates.
	rec := len(tbl.Rows) - 1
	if lost := cell(t, tbl, rec, 3); lost != 0 {
		t.Fatalf("recovery lost %.0f acked articles", lost)
	}
	if dup := cell(t, tbl, rec, 4); dup != 0 {
		t.Fatalf("recovery produced %.0f duplicates", dup)
	}
	if got := cell(t, tbl, rec, 2); got <= 0 {
		t.Fatalf("recovery recovered %.0f items", got)
	}
}

func TestE21OverloadSmall(t *testing.T) {
	cfg := DefaultE21()
	cfg.Rates = []float64{80, 800}
	cfg.Duration = time.Second
	cfg.Users, cfg.SeedArticles = 16, 6
	tbl, err := RunE21(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One row per rate plus capacity, p99-ratio, and node-counter rows.
	if len(tbl.Rows) != len(cfg.Rates)+3 {
		t.Fatalf("rows=%d want %d", len(tbl.Rows), len(cfg.Rates)+3)
	}
	for i := range cfg.Rates {
		if goodput := cell(t, tbl, i, 1); goodput <= 0 {
			t.Fatalf("rate %s: goodput %.1f", tbl.Rows[i][0], goodput)
		}
		if failed := cell(t, tbl, i, 3); failed != 0 {
			t.Fatalf("rate %s: %.0f failed requests", tbl.Rows[i][0], failed)
		}
	}
	// The low-rate cell must not shed: 80 req/s is far below capacity.
	if shed := cell(t, tbl, 0, 2); shed != 0 {
		t.Fatalf("pre-saturation cell shed %.1f%%", shed)
	}
	if capacity := cell(t, tbl, len(cfg.Rates), 1); capacity <= 0 {
		t.Fatalf("capacity/core %.1f", capacity)
	}
	// Node-side counters were scraped from /v1/metrics.
	if accepted := cell(t, tbl, len(cfg.Rates)+2, 1); accepted <= 0 {
		t.Fatalf("node accepted %.1f admissions", accepted)
	}
}
