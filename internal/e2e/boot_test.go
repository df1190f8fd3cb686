package e2e

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/supplychain"
)

// TestRankScoreSameAcrossRestart: the AI score a node reports for an item
// depends on the build and the item, not on the process. A standalone
// daemon commits a few articles and serves their ranks; it is stopped, a new
// process opens the same data directory, and its aiFakeProb must be the
// same JSON numbers. Each daemon trains its own classifier at boot, so this
// holds only if training and scoring sum in the same order in every
// process.
func TestRankScoreSameAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short mode")
	}
	root := t.TempDir()
	c := &cluster{t: t, bin: daemonBinary(t), nodes: []*node{{
		dataDir:  filepath.Join(root, "data"),
		httpAddr: fmt.Sprintf("127.0.0.1:%d", freePorts(t, 1)[0]),
		logPath:  filepath.Join(root, "node.log"),
	}}}
	t.Cleanup(c.stopAll)

	c.startStandalone()
	// Two processes that sum in different orders often agree to the last
	// bit on one text; on several they do not.
	author := newAccount("restart-author")
	var ids, first []string
	for i, s := range corpus.NewGenerator(3).Generate(3, 3).Statements {
		cid, size := c.putBlob(0, s.Text)
		id := fmt.Sprintf("restart-item-%d", i)
		payload, err := supplychain.PublishRefPayload(id, s.Topic, cid, size, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		c.submitTx(0, author.tx(t, "news.publish", payload))
		ids = append(ids, id)
		first = append(first, c.aiFakeProb(id))
	}
	c.stopGracefully()
	c.startStandalone()
	for i, id := range ids {
		if again := c.aiFakeProb(id); again != first[i] {
			t.Fatalf("%s: aiFakeProb %s before the restart, %s after", id, first[i], again)
		}
	}
	if !strings.Contains(c.tail(0), "boot: open") {
		t.Fatalf("the durable node line does not report the boot split:\n%s", c.tail(0))
	}
}

// TestIdleDaemonSleeps: a standalone durable daemon with the ingest
// pipeline on (its default) spends next to no CPU while nothing arrives,
// because nothing in it polls, and still publishes an article the moment
// one is posted.
func TestIdleDaemonSleeps(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short mode")
	}
	root := t.TempDir()
	c := &cluster{t: t, bin: daemonBinary(t), nodes: []*node{{
		dataDir:  filepath.Join(root, "data"),
		httpAddr: fmt.Sprintf("127.0.0.1:%d", freePorts(t, 1)[0]),
		logPath:  filepath.Join(root, "node.log"),
	}}}
	t.Cleanup(c.stopAll)
	c.startStandalone()

	const cpu = "trustnews_process_cpu_seconds_total"
	before := c.metrics(0)[cpu]
	time.Sleep(2 * time.Second)
	if spent := c.metrics(0)[cpu] - before; spent >= 0.020 {
		t.Fatalf("an idle daemon spent %.0f ms of CPU in 2 s, want < 20 ms", spent*1000)
	}

	text := "harbor authority approves the eastern pier expansion"
	resp, err := httpClient.Post("http://"+c.nodes[0].httpAddr+"/v1/ingest", "application/json",
		strings.NewReader(`{"source":"wire","topic":"econ","text":"`+text+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/ingest: status %d", resp.StatusCode)
	}
	body, _ := ingest.Extract(text, 0)
	id := ingest.ItemIDFor(body)
	c.waitFor("the ingested article to be committed and searchable", 5*time.Second, func() bool {
		if code, _ := c.getStatus(0, "/v1/items/"+id); code != http.StatusOK {
			return false
		}
		var page struct {
			Results []struct {
				ID string `json:"id"`
			} `json:"results"`
		}
		if code, err := c.getJSON(0, "/v1/search?q=eastern+pier", &page); err != nil || code != http.StatusOK {
			return false
		}
		for _, r := range page.Results {
			if r.ID == id {
				return true
			}
		}
		return false
	})
}

// startStandalone launches node 0 as a standalone durable daemon and waits
// until it answers /v1/healthz.
func (c *cluster) startStandalone() {
	c.t.Helper()
	nd := c.nodes[0]
	logFile, err := os.OpenFile(nd.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		c.t.Fatal(err)
	}
	cmd := exec.Command(c.bin, "-data", nd.dataDir, "-addr", nd.httpAddr, "-checkpoint-interval", "0")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		c.t.Fatal(err)
	}
	nd.cmd, nd.logFile = cmd, logFile
	c.waitFor("the standalone daemon to answer", 10*time.Second, func() bool {
		resp, err := httpClient.Get("http://" + nd.httpAddr + "/v1/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// stopGracefully sends node 0 SIGINT and waits for it to exit.
func (c *cluster) stopGracefully() {
	c.t.Helper()
	nd := c.nodes[0]
	if err := nd.cmd.Process.Signal(syscall.SIGINT); err != nil {
		c.t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- nd.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			c.t.Fatalf("daemon exited with %v:\n%s", err, c.tail(0))
		}
	case <-time.After(15 * time.Second):
		c.t.Fatalf("daemon did not stop within 15s:\n%s", c.tail(0))
	}
	nd.logFile.Close()
	nd.cmd = nil
}

// aiFakeProb returns the aiFakeProb of an item's rank on node 0 as the
// JSON number the node wrote.
func (c *cluster) aiFakeProb(id string) string {
	c.t.Helper()
	code, body := c.getStatus(0, "/v1/items/"+id+"/rank")
	var rank struct {
		AIFakeProb json.RawMessage `json:"aiFakeProb"`
	}
	if err := json.Unmarshal([]byte(body), &rank); code != http.StatusOK || err != nil {
		c.t.Fatalf("rank of %s: status %d, %v: %s", id, code, err, body)
	}
	if p := string(rank.AIFakeProb); p == "" || p == "-1" {
		c.t.Fatalf("rank of %s carries no AI score: %s", id, body)
	}
	return string(rank.AIFakeProb)
}
