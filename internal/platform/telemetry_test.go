package platform

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/telemetry"
)

// Regression: newDurable replaces the mempool New built after binding the
// reopened chain, and the replacement must be re-instrumented — otherwise
// durable nodes serve dead mempool series while in-memory nodes count.
func TestDurableNodeMempoolMetricsLive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, closeFn, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	a := p.NewActor("author")
	if err := a.PublishNews("m1", corpus.TopicPolitics, "short durable body", nil, ""); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	cfg.Telemetry.WritePrometheus(&sb)
	body := sb.String()
	for _, want := range []string{
		"trustnews_mempool_admitted_total 1",
		"trustnews_platform_commits_total 1",
		// The node reports its own stage budget: one observation per
		// commit-path stage and per committed tx's mempool wait.
		`trustnews_commit_stage_seconds_count{stage="execute"} 1`,
		`trustnews_commit_stage_seconds_count{stage="state_root"} 1`,
		`trustnews_commit_stage_seconds_count{stage="append"} 1`,
		`trustnews_commit_stage_seconds_count{stage="publish"} 1`,
		"trustnews_mempool_wait_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("durable node metrics missing %q in:\n%s", want, body)
		}
	}
}
