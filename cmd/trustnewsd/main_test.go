package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/telemetry"
)

// freePort reserves an ephemeral port and releases it for the daemon to
// bind. The tiny race with other processes is acceptable in tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDaemonLinksNoSimulation keeps the daemon's dependency closure to the
// system it runs: no simulated network, no test harness, no experiment or
// load generator code is linked into the shipped binary.
func TestDaemonLinksNoSimulation(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		if testing.Short() {
			t.Skip("go toolchain not on PATH")
		}
		t.Fatal(err)
	}
	out, err := exec.Command(goBin, "list", "-deps", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	for _, banned := range []string{"simnet", "gossip", "chaos", "experiments", "loadgen"} {
		if pkg := "repro/internal/" + banned; slices.Contains(deps, pkg) {
			t.Errorf("the daemon links %s", pkg)
		}
	}
}

// TestGracefulShutdownFlushesCheckpoint boots a durable daemon, waits for
// it to serve, cancels the run context (the SIGINT/SIGTERM path), and
// verifies that (a) run returns cleanly and (b) the final checkpoint
// covers the whole chain, so a reopen replays no WAL tail.
func TestGracefulShutdownFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	addr := freePort(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// seed-demo commits fact blocks, so there is chain state to
		// checkpoint; the periodic loop is disabled to prove the final
		// flush alone covers it.
		done <- run(ctx, options{addr: addr, seedDemo: true, corpusSeed: 1, dataDir: dir})
	}()

	url := fmt.Sprintf("http://%s/v1/chain", addr)
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}

	cfg := platform.DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, closeFn, err := platform.Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer closeFn()
	if p.Chain().Height() == 0 {
		t.Fatal("no chain state survived shutdown")
	}
	if p.CheckpointHeight() != p.Chain().Height() {
		t.Fatalf("final checkpoint at %d, chain at %d: WAL tail not flushed",
			p.CheckpointHeight(), p.Chain().Height())
	}
}
