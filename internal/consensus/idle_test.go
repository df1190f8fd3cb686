package consensus

import (
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// idleTimeouts are the default step timeouts with a 200 ms idle bound,
// the daemon's -block-interval default.
func idleTimeouts() Timeouts {
	tmo := DefaultTimeouts()
	tmo.Idle = 200 * time.Millisecond
	return tmo
}

// runFor drives the cluster for d of virtual time.
func runFor(c *Cluster, d time.Duration) {
	end := c.Net.Now() + d
	c.Net.RunWhile(func() bool { return c.Net.Now() < end })
}

// TestIdleClusterRestsAndWorkCommitsAtOnce: with Timeouts.Idle set, a
// cluster with nothing to do advances at most one height per Idle, and a
// transaction submitted to it while it rests commits within one round.
func TestIdleClusterRestsAndWorkCommitsAtOnce(t *testing.T) {
	c, err := NewCluster(4, 11, idleTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	runFor(c, 2*time.Second)
	h := c.MinHeight()
	// The first height starts at once; every later one waits out Idle.
	if max := uint64(2*time.Second/(200*time.Millisecond)) + 1; h > max || h < 5 {
		t.Fatalf("idle cluster reached height %d in 2s, want 5..%d", h, max)
	}

	// The cluster is resting now: a transaction ends the rest.
	tx, err := ledger.NewTx(keys.FromSeed([]byte("client")), 0, "news.publish", []byte("item"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitAll(tx); err != nil {
		t.Fatal(err)
	}
	start := c.Net.Now()
	c.Net.RunWhile(func() bool {
		for _, app := range c.Apps {
			if app.Pool.Size() > 0 {
				return c.Net.Now()-start < time.Second
			}
		}
		return false
	})
	took := c.Net.Now() - start
	if took > 60*time.Millisecond {
		t.Fatalf("transaction on a resting cluster committed after %v, want one round (≪ 200ms)", took)
	}
	for i := uint64(0); i <= c.MinHeight(); i++ {
		if !c.AgreeAt(i) {
			t.Fatalf("divergence at height %d", i)
		}
	}
}

// TestNonceGapIsNotWork: a transaction no block can include yet (its
// sender's earlier nonce is missing) sits in every mempool, and heights
// still start no faster than one per Idle. Mempool.Size is not the rule.
func TestNonceGapIsNotWork(t *testing.T) {
	c, err := NewCluster(4, 12, idleTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	gap, err := ledger.NewTx(keys.FromSeed([]byte("client")), 3, "news.publish", []byte("later"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitAll(gap); err != nil {
		t.Fatal(err)
	}
	c.Start()
	runFor(c, 2*time.Second)
	if max := uint64(2*time.Second/(200*time.Millisecond)) + 1; c.MinHeight() > max {
		t.Fatalf("a nonce-gap transaction drove the cluster to height %d in 2s, want ≤ %d", c.MinHeight(), max)
	}
	for _, app := range c.Apps {
		if app.Pool.Size() != 1 {
			t.Fatalf("gap transaction left a mempool: size %d", app.Pool.Size())
		}
	}
}

// TestBusyClusterKeepsPace: a client that keeps a fixed number of
// transactions in flight commits at 1/TxPace whether rounds are fast or
// slow, because a height that committed n transactions is followed by the
// next no sooner than n×TxPace after it started. Without the pace the rate
// is the window over the round time, and follows the links.
func TestBusyClusterKeepsPace(t *testing.T) {
	links := map[string]simnet.LinkConfig{
		"fast": {BaseLatency: time.Millisecond},
		"lan":  simnet.DefaultLink,
	}
	for name, link := range links {
		c, err := NewCluster(4, 15, idleTimeouts())
		if err != nil {
			t.Fatal(err)
		}
		c.Net.SetAllLinks(link)
		committed := 0
		c.Apps[0].OnCommit = func(b *ledger.Block) { committed += len(b.Txs) }
		sender := keys.FromSeed([]byte("client"))
		const inFlight = 60
		sent := 0
		runUntil := func(end time.Duration) {
			c.Net.RunWhile(func() bool {
				for ; sent-committed < inFlight; sent++ {
					tx, err := ledger.NewTx(sender, uint64(sent), "news.publish", []byte(strconv.Itoa(sent)))
					if err != nil {
						t.Fatal(err)
					}
					if err := c.SubmitAll(tx); err != nil {
						t.Fatal(err)
					}
				}
				return c.Net.Now() < end
			})
		}
		c.Start()
		runUntil(500 * time.Millisecond)
		before := committed
		runUntil(2500 * time.Millisecond)
		rate := float64(committed-before) / 2
		if want := float64(time.Second / TxPace); math.Abs(rate-want) > 0.05*want {
			t.Fatalf("%s links: %d in flight committed %.0f tx/s, want %.0f ± 5%%", name, inFlight, rate, want)
		}
	}
}

// TestStepsAddUpToHeight: the step series, wait included, add up to the
// height series on every validator, and a validator with transactions
// pending does not wait.
func TestStepsAddUpToHeight(t *testing.T) {
	c, err := NewCluster(4, 13, idleTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]*telemetry.Registry, len(c.Nodes))
	for i, n := range c.Nodes {
		regs[i] = telemetry.New()
		n.Instrument(regs[i])
	}
	// A trickle: one transaction every 30 ms for 1.5 s, then idle.
	sender := keys.FromSeed([]byte("client"))
	for i := 0; i < 50; i++ {
		tx, err := ledger.NewTx(sender, uint64(i), "news.publish", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		c.Net.After(c.Nodes[0].id, time.Duration(i)*30*time.Millisecond, func() {
			if err := c.SubmitAll(tx); err != nil {
				t.Error(err)
			}
		})
	}
	c.Start()
	// Stop right after a commit of validator 0, so no height of its is
	// half-charged.
	steps := func(i int) *telemetry.HistogramVec {
		return regs[i].HistogramVec("trustnews_consensus_step_seconds", "", nil, "step")
	}
	commits := func(i int) uint64 {
		return regs[i].Counter("trustnews_consensus_commits_total", "").Value()
	}
	busyWait := steps(0).With("wait").Sum()
	var busyHeights uint64
	c.Net.RunWhile(func() bool {
		if c.Net.Now() < 1500*time.Millisecond {
			busyWait = steps(0).With("wait").Sum()
			busyHeights = commits(0)
		}
		return commits(0) < busyHeights+5 || c.Net.Now() < 1500*time.Millisecond
	})
	for _, app := range c.Apps {
		if app.Pool.Size() != 0 {
			t.Fatalf("%d transactions left uncommitted", app.Pool.Size())
		}
	}
	// The trickle kept work pending most of the time: waits while busy
	// stay far below one Idle per height.
	if busyWait > 0.02*float64(busyHeights) {
		t.Fatalf("validator 0 waited %.3fs over %d busy heights", busyWait, busyHeights)
	}
	sv := steps(0)
	var sum float64
	for _, st := range []string{"wait", "propose", "prevote", "precommit", "apply"} {
		sum += sv.With(st).Sum()
	}
	hs := regs[0].Histogram("trustnews_consensus_height_seconds", "", nil)
	if hs.Count() == 0 || hs.Count() != commits(0) {
		t.Fatalf("%d height observations for %d commits", hs.Count(), commits(0))
	}
	if d := math.Abs(sum - hs.Sum()); d > 0.001*float64(hs.Count()) {
		t.Fatalf("steps add up to %.4fs, heights to %.4fs over %d heights", sum, hs.Sum(), hs.Count())
	}
	if w := sv.With("wait").Count(); w < hs.Count() {
		t.Fatalf("%d waits for %d heights", w, hs.Count())
	}
}

// TestOwnSignaturesNotChecked: a validator counts its own votes and its
// own proposal without verifying signatures it just made, and still
// verifies — and rejects — a forged vote that arrives from the network
// claiming its address.
func TestOwnSignaturesNotChecked(t *testing.T) {
	var own, others int
	checkSignature = func(verifier *Node, signer keys.Address) {
		if verifier.kp.Address() == signer {
			own++
		} else {
			others++
		}
	}
	defer func() { checkSignature = nil }()

	c, err := NewCluster(4, 14, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c.Instrument(reg)
	submitTxs(t, c, 20)
	c.Start()
	c.RunUntilHeight(12, 30*time.Second)
	if c.MinHeight() < 12 {
		t.Fatalf("cluster reached height %d", c.MinHeight())
	}
	if own != 0 || others == 0 {
		t.Fatalf("validators checked %d signatures of their own and %d of peers', want 0 and > 0", own, others)
	}

	// A vote for the current height that claims validator 0's address but
	// is signed by another key is checked, and rejected.
	n := c.Nodes[0]
	forged := Vote{Type: VotePrevote, Height: n.height, Round: n.round, Voter: n.kp.Address()}
	SignVote(&forged, c.Keys[1])
	forged.Voter = n.kp.Address()
	rejected := reg.CounterVec("trustnews_consensus_votes_rejected_total", "", "reason").With("bad_signature")
	before := rejected.Value()
	n.Handle(transport.Message{From: c.Nodes[1].id, To: n.id, Kind: KindVote, Payload: forged})
	if own != 1 || rejected.Value() != before+1 {
		t.Fatalf("forged vote: %d own-address checks, %d rejections, want 1 and 1", own, rejected.Value()-before)
	}
}
