package platform

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/aidetect"
	"repro/internal/consensus"
	"repro/internal/corpus"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

// A node reports its own boot: Open splits into restore and replay, the
// classifier's training is timed, and /v1/metrics carries the same split.
func TestBootPhasesReported(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 4)
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.NewActor("tail").PublishNews("tail-0", corpus.TopicHealth, "a block above the checkpoint", nil, ""); err != nil {
		t.Fatal(err)
	}
	closeFn()

	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, closeFn, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	if p.CheckpointHeight() == 0 {
		t.Fatal("the checkpoint was not restored")
	}
	if err := p.TrainClassifier(aidetect.NewLogisticRegression(), corpus.NewGenerator(1).Generate(20, 20).Statements); err != nil {
		t.Fatal(err)
	}
	b := p.Boot()
	if b.Restore <= 0 || b.Replay <= 0 || b.Train <= 0 || b.Open < b.Restore+b.Replay {
		t.Fatalf("boot phases %+v", b)
	}
	var sb strings.Builder
	cfg.Telemetry.WritePrometheus(&sb)
	for _, phase := range []string{"open", "restore", "replay", "train"} {
		if want := `trustnews_boot_seconds{phase="` + phase + `"} `; !strings.Contains(sb.String(), want) {
			t.Errorf("/v1/metrics lacks %s", want)
		}
	}
}

// A durable node's mempool and verifier series must be live, as an
// in-memory node's are: Open builds the node around the reopened chain,
// and the pool bound to that chain is the one instrumented.
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

	// The lazy work shows: one trace of the off-chain item computes its fact
	// match from the blob store, a second one computes nothing.
	for i := 0; i < 2; i++ {
		if _, err := p.Graph().Trace("m1"); err != nil {
			t.Fatal(err)
		}
	}

	var sb strings.Builder
	cfg.Telemetry.WritePrometheus(&sb)
	body := sb.String()
	for _, want := range []string{
		`trustnews_supplychain_similarity_computed_total{kind="root"} 1`,
		`trustnews_supplychain_similarity_computed_total{kind="edge"} 0`,
		"trustnews_supplychain_body_unavailable_total 0",
		// The one transaction was verified once and, committed, has left the
		// signature set.
		`trustnews_verify_sigcache_total{outcome="miss"} 1`,
		"trustnews_verify_sigcache_entries 0",
		"trustnews_mempool_admitted_total 1",
		"trustnews_platform_commits_total 1",
		// The node reports its own stage budget: one observation per
		// commit-path stage and per committed tx's mempool wait.
		`trustnews_commit_stage_seconds_count{stage="execute"} 1`,
		`trustnews_commit_stage_seconds_count{stage="state_root"} 1`,
		`trustnews_commit_stage_seconds_count{stage="append"} 1`,
		`trustnews_commit_stage_seconds_count{stage="receipts"} 1`,
		`trustnews_commit_stage_seconds_count{stage="publish"} 1`,
		"trustnews_mempool_wait_seconds_count 1",
		// The state and the transaction index say where their entries are:
		// one block's writes, all still in memory.
		`trustnews_contract_state_entries{where="memory"} `,
		`trustnews_contract_state_entries{where="sealed"} 0`,
		"trustnews_contract_state_log_bytes 0",
		`trustnews_store_segments{log="state"} 0`,
		`trustnews_store_segments{log="txindex"} 0`,
		`trustnews_store_segment_merges_total{log="state"} 0`,
		`trustnews_store_segment_merge_seconds_count{log="txindex"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("durable node metrics missing %q in:\n%s", want, body)
		}
	}
}

// A validator says where its wire bytes go: two platforms under consensus
// over loopback TCP commit one block, and each node's own registry splits
// its outbound frame bytes by message kind — the parts add up to
// trustnews_transport_bytes_out_total — and counts the block bodies it had
// to pull (none: both hold the proposal).
func TestClusterNodeWireMetricsLive(t *testing.T) {
	const n = 2
	set, kps, err := ClusterValidators(n)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]*telemetry.Registry, n)
	ps := make([]*Platform, n)
	trs := make([]*tcp.Transport, n)
	nodes := make([]*consensus.Node, n)
	for i := range ps {
		cfg := DefaultConfig()
		cfg.Telemetry = telemetry.New()
		regs[i] = cfg.Telemetry
		if ps[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
		trs[i], err = tcp.New(tcp.Config{
			NodeID:  ValidatorID(i),
			Listen:  "127.0.0.1:0",
			Codec:   wire.Codec{},
			Metrics: transport.NewMetrics(cfg.Telemetry),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer trs[i].Close()
		nodes[i] = AttachConsensus(ps[i], ValidatorID(i), kps[i], set, trs[i], consensus.Timeouts{})
		if err := nodes[i].Bind(); err != nil {
			t.Fatal(err)
		}
		if err := trs[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Both validators know the transaction before the first proposal.
	tx, err := ps[0].NewActor("author").Send("news.publish", publishPayload(t, "wired"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps[1].SubmitRelayed(tx); err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		node := nodes[i]
		trs[i].AddPeer(ValidatorID(1-i), trs[1-i].Addr())
		trs[i].After(ValidatorID(i), 0, func() { node.StartAt(0) })
	}
	for i := range ps {
		p := ps[i]
		waitFor(t, "the block to commit on both validators", func() bool { _, err := p.Item("wired"); return err == nil })
	}
	// The writer counts a frame once it is on the wire: wait until every
	// validator has counted the three kinds a commit needs (the proposer
	// rotates, so that takes two heights), then stop the traffic so the
	// sums below are of settled counters.
	kinds := []string{consensus.KindProposal, consensus.KindVote, consensus.KindCommit}
	waitFor(t, "the per-kind byte counters", func() bool {
		for _, reg := range regs {
			byKind := reg.CounterVec("trustnews_transport_kind_bytes_out_total", "", "kind")
			for _, k := range kinds {
				if byKind.With(k).Value() == 0 {
					return false
				}
			}
		}
		return true
	})
	for _, tr := range trs {
		tr.Close()
	}
	for i, reg := range regs {
		byKind := reg.CounterVec("trustnews_transport_kind_bytes_out_total", "", "kind")
		total := reg.Counter("trustnews_transport_bytes_out_total", "")
		if got := reg.Counter("trustnews_consensus_block_pulls_total", "").Value(); got != 0 {
			t.Fatalf("validator %d pulled %d block bodies, want 0", i, got)
		}
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		body := sb.String()
		var sum uint64
		for _, k := range append(kinds, consensus.KindSyncRequest, consensus.KindSyncBlocks, wire.KindMempoolTx) {
			sum += byKind.With(k).Value()
		}
		// Every committed height was appended and applied once, through the
		// append and receipts stages, and entered at least its propose step.
		commits := reg.Counter("trustnews_consensus_commits_total", "").Value()
		steps := reg.HistogramVec("trustnews_consensus_step_seconds", "", nil, "step")
		stages := reg.HistogramVec("trustnews_commit_stage_seconds", "", nil, "stage")
		a, ap, r, p := steps.With("apply").Count(), stages.With("append").Count(), stages.With("receipts").Count(), steps.With("propose").Count()
		if commits == 0 || a != commits || ap != commits || r != commits || p < commits {
			t.Fatalf("validator %d: %d commits, %d apply steps, %d append and %d receipts stages, %d propose steps", i, commits, a, ap, r, p)
		}
		if sum != total.Value() {
			t.Fatalf("validator %d: per-kind bytes add up to %d, bytes_out_total is %d in:\n%s", i, sum, total.Value(), body)
		}
		for _, want := range []string{
			`trustnews_transport_kind_bytes_out_total{kind="consensus.proposal"} `,
			`trustnews_transport_kind_bytes_out_total{kind="consensus.vote"} `,
			`trustnews_transport_kind_bytes_out_total{kind="consensus.commit"} `,
			"trustnews_consensus_block_pulls_total 0",
			// The consensus path reports the same stage budget as the
			// standalone one (it has no state_root stage), and the round's
			// budget by step.
			`trustnews_commit_stage_seconds_count{stage="append"} `,
			`trustnews_commit_stage_seconds_count{stage="execute"} `,
			`trustnews_commit_stage_seconds_count{stage="receipts"} `,
			`trustnews_commit_stage_seconds_count{stage="publish"} `,
			`trustnews_consensus_step_seconds_count{step="propose"} `,
			`trustnews_consensus_step_seconds_count{step="prevote"} `,
			`trustnews_consensus_step_seconds_count{step="precommit"} `,
			`trustnews_consensus_step_seconds_count{step="apply"} `,
			`trustnews_consensus_step_seconds_count{step="wait"} `,
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("validator %d metrics missing %q in:\n%s", i, want, body)
			}
		}
	}
}

// A node reports its own CPU budget: admission verification and every
// commit stage that ran charged CPU, and together they stay inside the
// process's CPU time.
func TestCPUBudgetReported(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("thread and process CPU are read only on Linux")
	}
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, closeFn, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	runWorkload(t, p, 6)
	reg := cfg.Telemetry
	admit := reg.CPUCounter("trustnews_mempool_admit_cpu_seconds_total", "").Value()
	if admit <= 0 {
		t.Fatalf("admission CPU %v", admit)
	}
	stages := reg.CPUCounterVec("trustnews_commit_stage_cpu_seconds_total", "", "stage")
	sum := admit
	for _, st := range commitStages {
		cpu := stages.With(st.label).Value()
		if cpu <= 0 {
			t.Errorf("stage %s charged no CPU", st.label)
		}
		sum += cpu
	}
	if proc := reg.CPUCounter("trustnews_process_cpu_seconds_total", "").Value(); proc < sum {
		t.Fatalf("process CPU %v < admission plus stages %v", proc, sum)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, want := range []string{
		"# TYPE trustnews_process_cpu_seconds_total counter",
		"# TYPE trustnews_mempool_admit_cpu_seconds_total counter",
		`trustnews_commit_stage_cpu_seconds_total{stage="execute"} `,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/v1/metrics lacks %s", want)
		}
	}
}
