// Package e2e black-box-tests a real trustnewsd cluster: it builds the
// daemon binary, spawns N validator processes on loopback TCP ports with
// per-node data directories and captured logs, drives transactions over
// the public HTTP API exactly like an external client would (keys never
// leave the test), and asserts chain convergence across processes —
// including across a kill -9 and rejoin.
//
// Everything in the package is test-only: the harness exercises the same
// binary an operator deploys, with no in-process shortcuts.
package e2e

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
)

// buildOnce compiles cmd/trustnewsd exactly once per test process.
var buildOnce struct {
	sync.Once
	bin string
	err error
}

// daemonBinary returns the path of a freshly built trustnewsd.
func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			buildOnce.err = err
			return
		}
		dir, err := os.MkdirTemp("", "trustnewsd-e2e-*")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "trustnewsd")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/trustnewsd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildOnce.err = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatalf("build daemon: %v", buildOnce.err)
	}
	return buildOnce.bin
}

// freePorts reserves n distinct loopback TCP ports by binding and
// releasing them. A parallel process could steal one between release and
// reuse, but the window is tiny and the test would fail loudly.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		listeners[i] = l
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	for _, l := range listeners {
		l.Close()
	}
	return ports
}

// node is one trustnewsd process under harness control.
type node struct {
	index    int
	dataDir  string
	httpAddr string
	consAddr string
	logPath  string
	cmd      *exec.Cmd
	logFile  *os.File
}

// cluster manages n validator processes.
type cluster struct {
	t     *testing.T
	bin   string
	nodes []*node
	peers string // shared -peers flag value
	// blockInterval is the -block-interval every node starts with: the
	// longest an idle validator waits before a heartbeat block.
	blockInterval string
}

// newCluster allocates directories and ports for n validators. No
// processes are started yet.
func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	bin := daemonBinary(t)
	root := t.TempDir()
	ports := freePorts(t, 2*n)
	c := &cluster{t: t, bin: bin, blockInterval: "100ms"}
	var peers []string
	for i := 0; i < n; i++ {
		nd := &node{
			index:    i,
			dataDir:  filepath.Join(root, fmt.Sprintf("p%d", i)),
			httpAddr: fmt.Sprintf("127.0.0.1:%d", ports[2*i]),
			consAddr: fmt.Sprintf("127.0.0.1:%d", ports[2*i+1]),
			logPath:  filepath.Join(root, fmt.Sprintf("p%d.log", i)),
		}
		c.nodes = append(c.nodes, nd)
		peers = append(peers, fmt.Sprintf("p%d=%s", i, nd.consAddr))
	}
	c.peers = strings.Join(peers, ",")
	t.Cleanup(c.stopAll)
	return c
}

// start launches node i. Ports linger in TIME_WAIT after a kill, so a
// restart retries for a few seconds before giving up.
func (c *cluster) start(i int) {
	c.t.Helper()
	nd := c.nodes[i]
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.tryStart(nd); err == nil {
			return
		} else if time.Now().After(deadline) {
			c.t.Fatalf("node %d failed to start: %v\n%s", i, err, c.tail(i))
		}
		time.Sleep(300 * time.Millisecond)
	}
}

// tryStart spawns the process and waits briefly to catch immediate exits
// (e.g. a consensus port still in TIME_WAIT from a killed predecessor).
func (c *cluster) tryStart(nd *node) error {
	logFile, err := os.OpenFile(nd.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(c.bin,
		"-node-id", fmt.Sprintf("p%d", nd.index),
		"-data", nd.dataDir,
		"-addr", nd.httpAddr,
		"-peers", c.peers,
		"-block-interval", c.blockInterval,
		"-checkpoint-interval", "2s",
	)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return err
	}
	// Poll the readiness endpoint instead of sleeping a fixed interval:
	// the node is started when /v1/healthz answers, and a process that
	// died (e.g. a consensus port still in TIME_WAIT from a killed
	// predecessor) is caught by the liveness probe between polls.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cmd.ProcessState != nil || cmd.Process.Signal(syscall.Signal(0)) != nil {
			_ = cmd.Wait()
			logFile.Close()
			return fmt.Errorf("process exited during startup")
		}
		resp, err := httpClient.Get("http://" + nd.httpAddr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			logFile.Close()
			return fmt.Errorf("no healthz answer within 5s")
		}
		time.Sleep(25 * time.Millisecond)
	}
	nd.cmd = cmd
	nd.logFile = logFile
	return nil
}

// kill9 delivers SIGKILL to node i — no graceful shutdown, no final
// checkpoint. Restart must recover from the WAL.
func (c *cluster) kill9(i int) {
	c.t.Helper()
	nd := c.nodes[i]
	if nd.cmd == nil {
		return
	}
	_ = nd.cmd.Process.Kill()
	_ = nd.cmd.Wait()
	nd.logFile.Close()
	nd.cmd = nil
}

// stopAll terminates every live process (cleanup handler).
func (c *cluster) stopAll() {
	for _, nd := range c.nodes {
		if nd.cmd != nil {
			_ = nd.cmd.Process.Kill()
			_ = nd.cmd.Wait()
			nd.logFile.Close()
			nd.cmd = nil
		}
	}
}

// tail returns the last few lines of node i's captured log for failure
// messages.
func (c *cluster) tail(i int) string {
	raw, err := os.ReadFile(c.nodes[i].logPath)
	if err != nil {
		return "(no log)"
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 12 {
		lines = lines[len(lines)-12:]
	}
	return strings.Join(lines, "\n")
}

// ---------------------------------------------------------------------------
// HTTP client side: the harness speaks to nodes exactly like a reader app.
// ---------------------------------------------------------------------------

var httpClient = &http.Client{Timeout: 5 * time.Second}

// getJSON decodes GET <node>/<path> into out, returning the status code.
func (c *cluster) getJSON(i int, path string, out any) (int, error) {
	resp, err := httpClient.Get("http://" + c.nodes[i].httpAddr + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// getStatus GETs <node>/<path> and returns the status code with the raw
// response body (the error message of a non-200).
func (c *cluster) getStatus(i int, path string) (int, string) {
	c.t.Helper()
	resp, err := httpClient.Get("http://" + c.nodes[i].httpAddr + path)
	if err != nil {
		c.t.Fatalf("GET %s on node %d: %v", path, i, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body) // a short read shows in the caller's message
	return resp.StatusCode, string(raw)
}

// putBlob uploads an article body to node i alone and returns its
// reference.
func (c *cluster) putBlob(i int, body string) (cid string, size int) {
	c.t.Helper()
	resp, err := httpClient.Post("http://"+c.nodes[i].httpAddr+"/v1/blobs", "text/plain", strings.NewReader(body))
	if err != nil {
		c.t.Fatalf("upload to node %d: %v", i, err)
	}
	defer resp.Body.Close()
	var out struct {
		CID  string `json:"cid"`
		Size int    `json:"size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.CID == "" {
		c.t.Fatalf("upload to node %d: status %d, %+v, %v", i, resp.StatusCode, out, err)
	}
	return out.CID, out.Size
}

type chainInfo struct {
	Height uint64 `json:"height"`
	HeadID string `json:"headId"`
}

type blockInfo struct {
	Height uint64 `json:"height"`
	ID     string `json:"id"`
}

// height returns node i's chain height (0 on any error).
func (c *cluster) height(i int) uint64 {
	var ci chainInfo
	if code, err := c.getJSON(i, "/v1/chain", &ci); err != nil || code != http.StatusOK {
		return 0
	}
	return ci.Height
}

// blockID returns node i's block ID at the given height ("" if absent).
func (c *cluster) blockID(i int, h uint64) string {
	var bi blockInfo
	code, err := c.getJSON(i, fmt.Sprintf("/v1/blocks/%d", h), &bi)
	if err != nil || code != http.StatusOK {
		return ""
	}
	return bi.ID
}

// submitTx signs nothing — the caller did — and POSTs the encoded tx to
// node i, failing the test on rejection.
func (c *cluster) submitTx(i int, tx *ledger.Tx) {
	c.t.Helper()
	body, err := json.Marshal(map[string]string{"txHex": hex.EncodeToString(tx.Encode())})
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := httpClient.Post("http://"+c.nodes[i].httpAddr+"/v1/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatalf("submit to node %d: %v", i, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		c.t.Fatalf("submit to node %d: status %d: %s", i, resp.StatusCode, e.Error)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func (c *cluster) waitFor(what string, timeout time.Duration, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			var heights []string
			for i := range c.nodes {
				heights = append(heights, fmt.Sprintf("p%d=%d", i, c.height(i)))
			}
			c.t.Fatalf("timed out waiting for %s (heights: %s)\nnode 0 log tail:\n%s",
				what, strings.Join(heights, " "), c.tail(0))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// account is a client-side signer with a local nonce counter (the chain
// starts empty, so counting from zero matches committed state).
type account struct {
	kp    *keys.KeyPair
	nonce uint64
}

func newAccount(seed string) *account {
	return &account{kp: keys.FromSeed([]byte(seed))}
}

func (a *account) addr() keys.Address { return a.kp.Address() }

// tx signs the next transaction from this account.
func (a *account) tx(t *testing.T, kind string, payload []byte) *ledger.Tx {
	t.Helper()
	tx, err := ledger.NewTx(a.kp, a.nonce, kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	a.nonce++
	return tx
}
