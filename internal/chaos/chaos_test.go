package chaos

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/httpapi"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

func newHarness(t *testing.T, cfg Config) *Harness {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestScenarioRollingRestarts checkpoints, crashes and restarts every
// replica in turn under continuous load. Each cycle must recover from
// disk, backfill the missed heights, and reconverge without a fork.
func TestScenarioRollingRestarts(t *testing.T) {
	h := newHarness(t, Config{
		Validators: 4,
		Seed:       1,
		PumpEvery:  40 * time.Millisecond,
	})
	for i := 0; i < 4; i++ {
		if err := h.RunFor(400 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := h.Checkpoint(i); err != nil {
			t.Fatal(err)
		}
		if err := h.Crash(i); err != nil {
			t.Fatal(err)
		}
		if err := h.RunFor(400 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := h.Restart(i); err != nil {
			t.Fatal(err)
		}
		if err := h.WaitConverge(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if h.CommittedHeight() == 0 {
		t.Fatal("no blocks committed under rolling restarts")
	}
}

// TestScenarioPartitionHeal isolates a minority replica, lets the
// majority keep committing, then heals and requires the minority to
// catch up and converge.
func TestScenarioPartitionHeal(t *testing.T) {
	h := newHarness(t, Config{
		Validators: 4,
		Seed:       2,
		PumpEvery:  40 * time.Millisecond,
	})
	if err := h.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := h.PartitionSplit([]int{0}, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	before := h.Cluster.Replicas[0].Chain().Height()
	if err := h.RunFor(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The majority made progress; the isolated minority could not.
	if h.Cluster.LiveMaxHeight() <= before {
		t.Fatalf("majority made no progress during partition (max height %d)", h.Cluster.LiveMaxHeight())
	}
	if got := h.Cluster.Replicas[0].Chain().Height(); got > before {
		t.Fatalf("minority committed during partition: %d > %d (safety escape)", got, before)
	}
	if err := h.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitConverge(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioCrashDuringCommit crashes a replica with no checkpoint
// while blocks are being committed, forcing the full-WAL-replay restart
// path, and requires committed blocks to survive.
func TestScenarioCrashDuringCommit(t *testing.T) {
	h := newHarness(t, Config{
		Validators: 4,
		Seed:       3,
		PumpEvery:  30 * time.Millisecond,
	})
	if err := h.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	crashHeight := h.Cluster.Replicas[2].Chain().Height()
	if crashHeight == 0 {
		t.Fatal("nothing committed before crash")
	}
	if err := h.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := h.RunFor(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := h.Restart(2); err != nil {
		t.Fatal(err)
	}
	if h.Cluster.Replicas[2].CheckpointHeight() != 0 {
		t.Fatal("expected full-replay restart (no checkpoint was written)")
	}
	if got := h.Cluster.Replicas[2].Chain().Height(); got+1 < crashHeight {
		t.Fatalf("committed blocks lost: recovered %d, crashed at %d", got, crashHeight)
	}
	if err := h.WaitConverge(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioCorruptLinksEquivocationPressure runs consensus over links
// that garble votes in flight (invalid signatures — the closest an
// attacker without keys can get to equivocation) and thin out commit
// certificates. The cluster must keep committing, reject every garbled
// artifact, and count the rejections.
func TestScenarioCorruptLinksEquivocationPressure(t *testing.T) {
	reg := telemetry.New()
	h := newHarness(t, Config{
		Validators: 4,
		Seed:       4,
		PumpEvery:  40 * time.Millisecond,
		Telemetry:  reg,
		Links: simnet.LinkConfig{
			BaseLatency:   5 * time.Millisecond,
			Jitter:        5 * time.Millisecond,
			CorruptRate:   0.10,
			DuplicateRate: 0.20,
		},
	})
	h.Cluster.Net.SetCorrupter(GarbleVotes)
	if err := h.RunFor(1200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h.CommittedHeight() == 0 {
		t.Fatal("no commits under corrupt links")
	}
	stats := h.Cluster.Net.Stats()
	if stats.Corrupted == 0 {
		t.Fatalf("corruption never fired: %+v", stats)
	}
	voteRej := reg.CounterVec("trustnews_consensus_votes_rejected_total", "", "reason")
	msgRej := reg.CounterVec("trustnews_consensus_messages_rejected_total", "", "reason")
	if voteRej.With("bad_signature").Value() == 0 {
		t.Fatal("garbled votes were not rejected as bad_signature")
	}
	if voteRej.With("duplicate").Value() == 0 {
		t.Fatal("duplicated votes were not rejected")
	}
	if msgRej.With("bad_certificate").Value()+msgRej.With("malformed").Value() == 0 {
		t.Fatal("garbled commits were not rejected")
	}
	// Faults off, the cluster must still converge cleanly.
	h.Cluster.Net.SetAllLinks(simnet.DefaultLink)
	h.Cluster.Net.SetCorrupter(nil)
	if err := h.WaitConverge(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// churnSchedule crashes and restarts replicas chosen by the network's
// seeded rng for a fixed number of rounds, then brings everyone back.
// Shared by the churn scenario and the determinism test.
func churnSchedule(h *Harness, rounds int) error {
	rng := h.Cluster.Net.Rand()
	for r := 0; r < rounds; r++ {
		if err := h.RunFor(300 * time.Millisecond); err != nil {
			return err
		}
		i := rng.Intn(len(h.Cluster.Replicas))
		switch {
		case h.Cluster.Down(i):
			if err := h.Restart(i); err != nil {
				return err
			}
		case h.Cluster.LiveCount() > 3:
			// Keep a quorum of 3 (of 4) alive so progress continues.
			if err := h.Checkpoint(i); err != nil {
				return err
			}
			if err := h.Crash(i); err != nil {
				return err
			}
		}
	}
	for i := range h.Cluster.Replicas {
		if h.Cluster.Down(i) {
			if err := h.Restart(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestScenarioChurn runs randomized (but seeded) crash/restart churn and
// requires convergence once the churn stops.
func TestScenarioChurn(t *testing.T) {
	h := newHarness(t, Config{
		Validators: 4,
		Seed:       5,
		PumpEvery:  50 * time.Millisecond,
	})
	if err := churnSchedule(h, 8); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitConverge(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if h.CommittedHeight() == 0 {
		t.Fatal("no commits under churn")
	}
	// Every block a replica stores, decided live or synced after a
	// restart, carries the certificate that decided it.
	for i, p := range h.Cluster.Replicas {
		if h.Cluster.Down(i) {
			continue
		}
		chain := p.Chain()
		for height := uint64(0); height < chain.Height(); height++ {
			b, err := chain.BlockAt(height)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := chain.CertAt(height)
			if err != nil {
				t.Fatalf("replica %d height %d: %v", i, height, err)
			}
			cert, err := consensus.DecodeCommit(raw)
			if err != nil {
				t.Fatalf("replica %d height %d: %v", i, height, err)
			}
			if err := consensus.VerifyCommit(cert, h.Cluster.Set); err != nil || cert.Height != height || cert.BlockID != b.ID() {
				t.Fatalf("replica %d height %d: certificate for height %d block %s (%v), want block %s",
					i, height, cert.Height, cert.BlockID.Short(), err, b.ID().Short())
			}
		}
	}
}

// seed99Fingerprint is what TestChaosDeterministicFingerprint's schedule
// produces. A change that moves it changes the cluster's behaviour: update
// the constant in that change and say why in CHANGES.md.
const seed99Fingerprint = "8f8894eb81ff1bc96681853398204e4c412fccc21e59db13c47e42cdfa48c837"

// TestChaosDeterministicFingerprint runs the identical churn schedule
// twice with the same seed and requires bit-identical outcomes: same
// commit history, same replica heights, same network fault counters — and
// the pinned fingerprint, so a behaviour change cannot pass unnoticed.
func TestChaosDeterministicFingerprint(t *testing.T) {
	run := func(dir string) string {
		h, err := New(Config{
			Validators: 4,
			Seed:       99,
			Dir:        dir,
			PumpEvery:  50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		if err := churnSchedule(h, 5); err != nil {
			t.Fatal(err)
		}
		if err := h.WaitConverge(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return h.Fingerprint()
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	t.Logf("fingerprint %s", a)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %s\n  run2 %s", a, b)
	}
	if a != seed99Fingerprint {
		t.Fatalf("seed-99 fingerprint %s, pinned %s: if this change means to alter cluster behaviour, update seed99Fingerprint in the same change and give the reason in CHANGES.md", a, seed99Fingerprint)
	}
}

// TestChaosMetricsExposed checks that the chaos counters and the new
// consensus rejection counters surface through the HTTP gateway's
// /v1/metrics endpoint.
func TestChaosMetricsExposed(t *testing.T) {
	reg := telemetry.New()
	h := newHarness(t, Config{
		Validators: 4,
		Seed:       6,
		Telemetry:  reg,
		PumpEvery:  40 * time.Millisecond,
		Links: simnet.LinkConfig{
			BaseLatency:   5 * time.Millisecond,
			Jitter:        5 * time.Millisecond,
			DuplicateRate: 0.3,
		},
	})
	if err := h.RunFor(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := h.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := h.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := h.Restart(1); err != nil {
		t.Fatal(err)
	}

	srv := httpapi.New(h.Cluster.Replicas[0], false)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, series := range []string{
		`trustnews_chaos_faults_total{kind="crash"}`,
		`trustnews_chaos_faults_total{kind="restart"}`,
		"trustnews_chaos_invariant_checks_total",
		"trustnews_chaos_live_replicas",
		`trustnews_consensus_votes_rejected_total{reason="duplicate"}`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("/v1/metrics missing %s\n--- body excerpt ---\n%.2000s", series, body)
		}
	}
}
