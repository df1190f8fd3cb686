package e2e

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ranking"
	"repro/internal/supplychain"
)

// TestClusterConvergence is the end-to-end acceptance scenario: four
// trustnewsd processes reach consensus over loopback TCP, transactions
// submitted to any node's HTTP API commit on every node, and a validator
// that is kill -9'd rejoins from its WAL and catches up with the chain
// that moved on without it.
func TestClusterConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e scenario; skipped in -short mode")
	}
	c := newCluster(t, 4)
	for i := range c.nodes {
		c.start(i)
	}
	atMesh := c.waitMeshed()

	// Client-side signers. The authority seed is the platform default, so
	// mints are accepted; everyone else is a fresh account.
	authority := newAccount("platform-authority")
	publisher := newAccount("e2e-publisher")
	voterA := newAccount("e2e-voter-a")
	voterB := newAccount("e2e-voter-b")

	// Fund the voters (mints are authority-signed), via node 0.
	for _, to := range []*account{voterA, voterB} {
		payload, err := ranking.MintPayload(to.addr(), 1000)
		if err != nil {
			t.Fatal(err)
		}
		c.submitTx(0, authority.tx(t, "rank.mint", payload))
	}

	// Publish a news item via node 1 — the mempool relay must carry it to
	// whichever validator proposes next.
	pub, err := supplychain.PublishPayload("e2e-item-1", corpus.Topic("politics"), "Reservoir levels rose 4% after March storms.", nil, corpus.Op(""))
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(1, publisher.tx(t, "news.publish", pub))
	c.waitFor("item e2e-item-1 indexed on every node", 30*time.Second, func() bool {
		for i := range c.nodes {
			if code, err := c.getJSON(i, "/v1/items/e2e-item-1", nil); err != nil || code != http.StatusOK {
				return false
			}
		}
		return true
	})

	// An article whose body lives off-chain: uploaded to node 1 alone and
	// published by reference through node 1, as a rewrite of item 1. Every
	// validator indexes it — the graph needs no body at commit time — while
	// only node 1 can trace it.
	cid, size := c.putBlob(1, "Reservoir levels rose 4% after March storms, officials said, calling the recovery remarkable.")
	ref, err := supplychain.PublishRefPayload("e2e-item-ref", corpus.Topic("politics"), cid, size, []string{"e2e-item-1"}, corpus.OpInsert)
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(1, publisher.tx(t, "news.publish", ref))
	c.waitFor("item e2e-item-ref committed on node 1", 30*time.Second, func() bool {
		code, err := c.getJSON(1, "/v1/items/e2e-item-ref", nil)
		return err == nil && code == http.StatusOK
	})
	// A node that has committed the next height has settled this one.
	refHeight := c.height(1)
	c.waitFor("every node past the off-chain item's block", 30*time.Second, func() bool {
		for i := range c.nodes {
			if c.height(i) <= refHeight {
				return false
			}
		}
		return true
	})
	for i := range c.nodes {
		var subs []struct {
			Name      string `json:"name"`
			Errors    uint64 `json:"errors"`
			LastError string `json:"lastError"`
		}
		if code, err := c.getJSON(i, "/v1/commitbus", &subs); err != nil || code != http.StatusOK || len(subs) == 0 {
			t.Fatalf("node %d /v1/commitbus: status %d, %d subscribers, %v", i, code, len(subs), err)
		}
		for _, sub := range subs {
			if sub.Errors != 0 {
				t.Fatalf("node %d subscriber %s: %d errors (%s); an off-chain item must index on a validator that does not hold its body", i, sub.Name, sub.Errors, sub.LastError)
			}
		}
		var ci struct {
			Items int `json:"items"`
		}
		if code, err := c.getJSON(i, "/v1/chain", &ci); err != nil || code != http.StatusOK || ci.Items != 2 {
			t.Fatalf("node %d graph holds %d items (status %d, %v), want 2 on every node", i, ci.Items, code, err)
		}
	}
	if code, msg := c.getStatus(1, "/v1/items/e2e-item-ref/trace"); code != http.StatusOK {
		t.Fatalf("trace on the node that holds the body: status %d: %s", code, msg)
	}
	if code, msg := c.getStatus(0, "/v1/items/e2e-item-ref/trace"); code != http.StatusServiceUnavailable || !strings.Contains(msg, supplychain.ErrBodyUnavailable.Error()) {
		t.Fatalf("trace on a node without the body: status %d: %q; want 503 naming %q", code, msg, supplychain.ErrBodyUnavailable)
	}

	// Stake votes through two different nodes.
	voteA, err := ranking.VotePayload("e2e-item-1", true, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(2, voterA.tx(t, "rank.vote", voteA))
	voteB, err := ranking.VotePayload("e2e-item-1", false, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(3, voterB.tx(t, "rank.vote", voteB))
	c.waitFor("stakes deducted on node 0", 30*time.Second, func() bool {
		return c.balance(0, voterA) == 900 && c.balance(0, voterB) == 950
	})

	// Chain "height" counts blocks; the newest common block sits at
	// height-1 (block heights are zero-based).
	c.assertConverged(c.commonHeight()-1, 0, 1, 2, 3)

	// Wire budget of the clean run. A commit certificate is votes only,
	// so what a node spends announcing commits is a few hundred bytes per
	// height and peer however many transactions the blocks carried, and
	// since the cluster was fully meshed nobody had to pull a body: every
	// validator got it with the proposal (one that reads the certificate
	// first waits for it). Putting block bodies back into a broadcast
	// fails here.
	for i := range c.nodes {
		m := c.metrics(i)
		commits := m["trustnews_consensus_commits_total"]
		if commits == 0 {
			t.Fatalf("node %d reports no commits", i)
		}
		certBytes := m[`trustnews_transport_kind_bytes_out_total{kind="consensus.commit"}`]
		perHeightPeer := certBytes / (commits * float64(len(c.nodes)-1))
		if certBytes == 0 || perHeightPeer >= 1024 {
			t.Fatalf("node %d sent %.0f commit-certificate bytes over %.0f heights: %.0f per height and peer, want (0, 1024)", i, certBytes, commits, perHeightPeer)
		}
	}
	if pulled := c.pulledSince(atMesh); pulled != "" {
		t.Fatalf("%s in a clean run, want 0", pulled)
	}
	// Block-sync bytes the three nodes that stay up have sent so far.
	syncServed := func() (sum float64) {
		for i := 0; i < 3; i++ {
			sum += c.metrics(i)[`trustnews_transport_kind_bytes_out_total{kind="consensus.syncblocks"}`]
		}
		return sum
	}
	servedBefore := syncServed()

	// Kill -9 validator 3: no graceful shutdown, no final checkpoint. The
	// remaining three validators are a quorum and the chain keeps moving.
	killedAt := c.height(3)
	c.kill9(3)
	pub2, err := supplychain.PublishPayload("e2e-item-2", corpus.Topic("health"), "Trial shows the vaccine halves transmission.", nil, corpus.Op(""))
	if err != nil {
		t.Fatal(err)
	}
	c.submitTx(0, publisher.tx(t, "news.publish", pub2))
	c.waitFor("item e2e-item-2 on surviving nodes, chain advanced", 30*time.Second, func() bool {
		for i := 0; i < 3; i++ {
			if code, err := c.getJSON(i, "/v1/items/e2e-item-2", nil); err != nil || code != http.StatusOK {
				return false
			}
			if c.height(i) < killedAt+5 {
				return false
			}
		}
		return true
	})

	// Rejoin: same data directory, same ports. The node recovers its
	// chain from the WAL, re-enters consensus behind the quorum, and the
	// sync protocol backfills what it missed.
	c.start(3)
	c.waitFor("node 3 caught up past the quorum's kill-time lead", 45*time.Second, func() bool {
		if code, err := c.getJSON(3, "/v1/items/e2e-item-2", nil); err != nil || code != http.StatusOK {
			return false
		}
		return c.height(3) >= killedAt+5
	})
	c.assertConverged(c.commonHeight()-1, 0, 1, 2, 3)

	// What node 3 missed came through block sync: a live peer read the
	// bodies from its chain and sent them under a retained certificate.
	if servedAfter := syncServed(); servedAfter <= servedBefore {
		t.Fatalf("node 3 caught up but no live peer served block sync (%.0f bytes before the kill, %.0f after)", servedBefore, servedAfter)
	}
}

// TestIdleClusterCommitsOnArrival: -block-interval bounds how long an idle
// cluster waits, it does not pace blocks. On a cluster with a one-second
// interval that has just committed a heartbeat, a transaction posted to
// one node is visible on all four within 300 ms.
func TestIdleClusterCommitsOnArrival(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e scenario; skipped in -short mode")
	}
	c := newCluster(t, 4)
	c.blockInterval = "1s"
	for i := range c.nodes {
		c.start(i)
	}
	c.waitMeshed()
	// Catch a heartbeat as it lands: the cluster then rests for a second.
	h := c.height(0)
	c.waitFor("a heartbeat block", 5*time.Second, func() bool { return c.height(0) > h })
	pub, err := supplychain.PublishPayload("e2e-idle-1", corpus.Topic("science"), "The probe entered orbit on schedule.", nil, corpus.Op(""))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.submitTx(0, newAccount("e2e-idle").tx(t, "news.publish", pub))
	visible := make([]bool, len(c.nodes))
	for left := len(c.nodes); left > 0; {
		for i := range c.nodes {
			if !visible[i] {
				if code, err := c.getJSON(i, "/v1/items/e2e-idle-1", nil); err == nil && code == http.StatusOK {
					visible[i] = true
					left--
				}
			}
		}
		if took := time.Since(start); took > 300*time.Millisecond {
			t.Fatalf("after %v the item is visible on %v, want every node within 300ms of a 1s block interval", took, visible)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("visible on all four nodes %v after submission", time.Since(start))
}

// waitMeshed blocks until the cluster is in its steady state and returns
// every node's metrics at that moment. Validators start one after
// another, so the first three decide heights before the fourth is linked,
// and a proposal sent to a peer whose link is not up is lost: the late
// node pulls those bodies, which is what the pull path is for. The clean
// run begins when every node reports links in both directions with all
// the others (peersConnected in /v1/healthz) and has then committed two
// more heights, so that every proposal still in play was sent over a full
// mesh.
func (c *cluster) waitMeshed() []map[string]float64 {
	c.t.Helper()
	want := len(c.nodes) - 1
	c.waitFor(fmt.Sprintf("every node linked with %d peers", want), 30*time.Second, func() bool {
		for i := range c.nodes {
			var hz struct {
				PeersConnected int `json:"peersConnected"`
			}
			if code, err := c.getJSON(i, "/v1/healthz", &hz); err != nil || code != http.StatusOK || hz.PeersConnected != want {
				return false
			}
		}
		return true
	})
	var settled uint64
	for i := range c.nodes {
		if h := c.height(i) + 2; h > settled {
			settled = h
		}
	}
	c.waitFor(fmt.Sprintf("all nodes at height %d", settled), 30*time.Second, func() bool {
		for i := range c.nodes {
			if c.height(i) < settled {
				return false
			}
		}
		return true
	})
	return c.allMetrics()
}

// allMetrics scrapes every node.
func (c *cluster) allMetrics() []map[string]float64 {
	all := make([]map[string]float64, len(c.nodes))
	for i := range c.nodes {
		all[i] = c.metrics(i)
	}
	return all
}

// pulledSince names the first node that has pulled block bodies since the
// given scrape ("" if none has).
func (c *cluster) pulledSince(since []map[string]float64) string {
	const series = "trustnews_consensus_block_pulls_total"
	for i, m := range c.allMetrics() {
		if pulls := m[series] - since[i][series]; pulls != 0 {
			return fmt.Sprintf("node %d pulled %.0f block bodies", i, pulls)
		}
	}
	return ""
}

// metrics scrapes node i's /v1/metrics into series (name plus label set,
// as exposed) -> value.
func (c *cluster) metrics(i int) map[string]float64 {
	c.t.Helper()
	resp, err := httpClient.Get("http://" + c.nodes[i].httpAddr + "/v1/metrics")
	if err != nil {
		c.t.Fatalf("node %d metrics: %v", i, err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		sep := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || sep < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sep+1:], 64); err == nil {
			out[line[:sep]] = v
		}
	}
	if err := sc.Err(); err != nil {
		c.t.Fatalf("node %d metrics: %v", i, err)
	}
	return out
}

// balance reads an account's token balance from node i (0 on error).
func (c *cluster) balance(i int, a *account) uint64 {
	var resp struct {
		Balance uint64 `json:"balance"`
	}
	if code, err := c.getJSON(i, "/v1/accounts/"+a.addr().String(), &resp); err != nil || code != http.StatusOK {
		return 0
	}
	return resp.Balance
}

// commonHeight returns the highest height every node has reached.
func (c *cluster) commonHeight() uint64 {
	c.t.Helper()
	min := c.height(0)
	for i := 1; i < len(c.nodes); i++ {
		if h := c.height(i); h < min {
			min = h
		}
	}
	if min == 0 {
		c.t.Fatal("no common height: some node reports height 0")
	}
	return min
}

// assertConverged fails unless all listed nodes agree on the block ID at
// height h.
func (c *cluster) assertConverged(h uint64, nodes ...int) {
	c.t.Helper()
	want := ""
	for _, i := range nodes {
		id := c.blockID(i, h)
		if id == "" {
			var raw, chain json.RawMessage
			code, err := c.getJSON(i, fmt.Sprintf("/v1/blocks/%d", h), &raw)
			_, _ = c.getJSON(i, "/v1/chain", &chain)
			c.t.Fatalf("node %d has no block at height %d (status %d, err %v, body %s, chain %s)\n%s", i, h, code, err, raw, chain, c.tail(i))
		}
		if want == "" {
			want = id
			continue
		}
		if id != want {
			c.t.Fatalf("fork at height %d: node %d has %s, node %d has %s", h, nodes[0], want, i, id)
		}
	}
	c.t.Logf("converged: %d nodes agree on block %s at height %d", len(nodes), want[:16], h)
}

// TestClusterFlagValidation covers the daemon's cluster-flag error paths
// without spawning a full cluster: bad -peers and -seed-demo conflicts
// must fail fast with a clear message instead of half-joining consensus.
func TestClusterFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short mode")
	}
	bin := daemonBinary(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing peers", []string{"-node-id", "p0"}, "-peers"},
		{"malformed peers", []string{"-node-id", "p0", "-peers", "p0:127.0.0.1"}, "id=host:port"},
		{"self not listed", []string{"-node-id", "p9", "-peers", "p0=127.0.0.1:1,p1=127.0.0.1:2"}, "no entry for this node"},
		{"seed-demo conflict", []string{"-node-id", "p0", "-peers", "p0=127.0.0.1:1,p1=127.0.0.1:2", "-seed-demo"}, "incompatible with cluster mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runDaemon(bin, tc.args...)
			if err == nil {
				t.Fatalf("daemon accepted %v", tc.args)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("error output %q does not mention %q", out, tc.want)
			}
		})
	}
}

// runDaemon runs the binary until exit (the error cases exit immediately)
// with a safety timeout.
func runDaemon(bin string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	return string(out), err
}
