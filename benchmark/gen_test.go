package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sequenceHash digests everything a run would send for spec and seed: the
// open-loop schedule, the probes, and the head of every closed-loop
// client's stream.
func sequenceHash(t *testing.T, spec workloadSpec, seed int64) string {
	t.Helper()
	in, err := makeInputs(seed, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	ops, probes := openSchedule(spec, in, 3*time.Second)
	all := append(ops, probes...)
	for _, c := range closedClients(spec, in, 2) {
		for i := 0; i < 200; i++ {
			all = append(all, c.gen.next())
		}
	}
	if len(all) == 0 {
		t.Fatalf("%s generated no ops", spec.name)
	}
	return hashOps(all)
}

func TestSameSeedSameOpSequence(t *testing.T) {
	for _, spec := range workloads {
		a, b := sequenceHash(t, spec, 7), sequenceHash(t, spec, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two op sequences (%s, %s)", spec.name, a[:12], b[:12])
		}
		if c := sequenceHash(t, spec, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", spec.name)
		}
	}
}

// No account votes twice on one item: a repeated vote would commit with a
// failed receipt.
func TestVotesNeverRepeat(t *testing.T) {
	in, err := makeInputs(3, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	g := newOpGen(in, "w", 1, mix{{opVote, 1}}, userStripe(16, 0, 1))
	seen := make(map[[2]int]bool)
	perUser := make(map[int]int)
	for i := 0; ; i++ {
		o := g.next()
		if perUser[o.user]++; perUser[o.user] > len(in.articles) {
			break // this user has voted on every article there is
		}
		k := [2]int{o.user, o.art}
		if seen[k] {
			t.Fatalf("user %d votes on article %d twice (op %d)", o.user, o.art, i)
		}
		seen[k] = true
	}
}

// A closed-loop writer stops sending when the window of acked but
// uncommitted transactions is full, and never overshoots it.
func TestClosedLoopWindowNeverExceeded(t *testing.T) {
	const limit = 1024
	var accepted atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/blobs", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"cid":"c","size":1}`))
	})
	mux.HandleFunc("POST /v1/tx", func(w http.ResponseWriter, _ *http.Request) {
		accepted.Add(1)
		_, _ = w.Write([]byte(`{"txId":"t","committed":false}`))
	})
	// Nothing ever commits: the mempool holds every accepted transaction.
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"ready": true, "height": 1, "mempoolDepth": accepted.Load()})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	in, err := makeInputs(1, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	spec := workloadSpec{writers: -1, writerMix: writeMix, txWindow: limit, trackEvery: 1}
	r := &runner{
		env: &benchEnv{workers: 2}, spec: spec, in: in, base: srv.URL,
		userMu: make([]sync.Mutex, len(in.users)),
		win:    txWindow{limit: limit},
	}
	r.sched = newScheduler(2)
	r.sched.pollAt(time.Now(), r.pollHealth)
	for _, c := range closedClients(spec, in, 2) {
		r.stepClosed(c)
	}
	deadline := time.Now().Add(4 * time.Second)
	for accepted.Load() < limit && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // room to overshoot, if it were going to
	r.stopGen.Store(true)
	r.sched.close()
	if got := accepted.Load(); got != limit {
		t.Fatalf("%d transactions acked and uncommitted, want the window of %d exactly", got, limit)
	}
}

// BENCHMARK.json repeats the catalog in spec.go; the two must not drift.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var listed []workloadSpec
	for _, w := range workloads {
		if !w.byHand {
			listed = append(listed, w)
		}
	}
	if len(doc.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed in spec.go", len(doc.Workloads), len(listed))
	}
	if doc.RunSeconds != 30 {
		t.Errorf("run_seconds %d: the measured window is 30 s and is not shortened", doc.RunSeconds)
	}
	for i, w := range listed {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their why differs)", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: bound differs from spec.go's %v", d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
