package loadgen

import (
	"strings"
	"testing"
	"time"
)

// TestLoadgenSmoke is the tier-1 smoke: a short low-rate open-loop run
// against an in-process node must complete with zero failures, zero
// sheds, and zero client drops — at 40 req/s the node is nowhere near
// capacity, so anything nonzero is a generator or serving-path bug.
func TestLoadgenSmoke(t *testing.T) {
	node, err := StartLocalNode()
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	cfg := DefaultConfig()
	cfg.BaseURL = node.URL
	cfg.Rate = 40
	cfg.Duration = 3 * time.Second
	cfg.Users = 16
	cfg.SeedArticles = 8
	sum := runSmoke(t, cfg)

	if sum.Failed != 0 {
		t.Errorf("smoke run had %d failed requests", sum.Failed)
	}
	if sum.Shed != 0 {
		t.Errorf("smoke run had %d shed requests (node should be far from capacity)", sum.Shed)
	}
	if sum.ClientDropped != 0 {
		t.Errorf("smoke run client-dropped %d arrivals", sum.ClientDropped)
	}
	for op, st := range sum.Ops {
		if st.FirstErr != "" {
			t.Errorf("op %s first error: %s", op, st.FirstErr)
		}
	}
	// Every op in the mix must actually have been exercised.
	for _, op := range []string{OpPublish, OpRelay, OpVote, OpSearch, OpBlobRead} {
		if sum.Ops[op].Count == 0 {
			t.Errorf("op %s never ran in a %d-arrival run", op, sum.Offered)
		}
	}
	if sum.OK < sum.Offered*9/10 {
		t.Errorf("only %d/%d arrivals succeeded", sum.OK, sum.Offered)
	}
	// The serving path must have produced admission telemetry.
	metrics, err := NewClient(node.URL, 5*time.Second).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "trustnews_admission_accepted_total") {
		t.Error("admission metrics missing from /v1/metrics")
	}
}

func runSmoke(t *testing.T, cfg Config) Summary {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestConfigValidation pins the constructor's rejection of non-runs.
func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	base.BaseURL = "http://127.0.0.1:1"
	base.Rate = 10
	base.Duration = time.Second
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no url", func(c *Config) { c.BaseURL = "" }},
		{"zero rate", func(c *Config) { c.Rate = 0 }},
		{"negative rate", func(c *Config) { c.Rate = -5 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"zero users", func(c *Config) { c.Users = 0 }},
		{"zero inflight", func(c *Config) { c.MaxInFlight = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("want construction error")
			}
		})
	}
}

// TestPercentile pins the nearest-rank math the summary reports.
func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(ds, 0.50); got != 50*time.Millisecond {
		t.Errorf("p50 = %s", got)
	}
	if got := percentile(ds, 0.99); got != 99*time.Millisecond {
		t.Errorf("p99 = %s", got)
	}
	if got := percentile(ds, 0.999); got != 100*time.Millisecond {
		t.Errorf("p999 = %s", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %s", got)
	}
}
