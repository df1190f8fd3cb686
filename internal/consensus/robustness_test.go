package consensus

import (
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// TestCertWindowBounded runs a cluster for many heights and checks that
// in-memory certificate retention stays within the configured sliding
// window plus one anchor per anchorStride heights on every node — in count
// and in bytes: a certificate holds votes, never a block body — while the
// chain itself keeps every block.
func TestCertWindowBounded(t *testing.T) {
	const (
		window = 32
		target = 1000
	)
	c, err := NewCluster(4, 77, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.SetCertWindow(window)
	}
	c.Start()
	c.RunUntilHeight(target, 10*time.Hour)
	if h := c.MinHeight(); h < target {
		t.Fatalf("cluster stalled at height %d, want %d", h, target)
	}
	for i, n := range c.Nodes {
		if got := n.CertCount(); got > window {
			t.Fatalf("node %d retains %d certs, window is %d", i, got, window)
		}
		// Below the window, one anchor per anchorStride heights.
		anchors := target/anchorStride + 1
		if got := len(n.anchors); got > anchors {
			t.Fatalf("node %d retains %d anchors over %d heights, want ≤ %d", i, got, target, anchors)
		}
		// Size of the retained certificates in the wire codec's layout
		// (height, block id, vote count, then per vote: type, height,
		// round, block id, voter, length-prefixed signature).
		retained := 0
		held := append([]*Commit(nil), n.anchors...)
		for _, cert := range n.certs {
			held = append(held, cert)
		}
		for _, cert := range held {
			retained += 8 + 32 + 4
			for _, v := range cert.Quorum {
				retained += 1 + 8 + 8 + 32 + len(v.Voter) + 4 + len(v.Sig)
			}
		}
		if max := (window + anchors) * 1024; retained > max {
			t.Fatalf("node %d retains %d bytes of certificates, want at most %d ((window %d + %d anchors) x 1 KB)", i, retained, max, window, anchors)
		}
		// The chain still holds the full history.
		if _, err := c.Apps[i].Chain.BlockAt(0); err != nil {
			t.Fatalf("node %d lost genesis-height block: %v", i, err)
		}
	}
	for _, h := range []uint64{0, uint64(target) / 2, target - 1} {
		if !c.AgreeAt(h) {
			t.Fatalf("fork at height %d", h)
		}
	}
}

// TestAnchorsKeepNewest: below the window a node keeps one certificate per
// anchorStride heights, in height order, and only the newest maxAnchors.
func TestAnchorsKeepNewest(t *testing.T) {
	n := &Node{certs: make(map[uint64]*Commit), certWindow: 4}
	const heights = (maxAnchors + 10) * anchorStride
	for h := uint64(0); h < heights; h++ {
		n.certs[h] = &Commit{Height: h}
		n.height = h
		n.pruneCerts()
	}
	if len(n.anchors) != maxAnchors {
		t.Fatalf("%d anchors, want %d", len(n.anchors), maxAnchors)
	}
	for i, a := range n.anchors {
		if want := uint64(10+i) * anchorStride; a.Height != want {
			t.Fatalf("anchor %d at height %d, want %d", i, a.Height, want)
		}
	}
	if len(n.certs) != 4 {
		t.Fatalf("%d certificates in the window, want 4", len(n.certs))
	}
}

// TestLaggardBackfillsBelowCertWindow detaches one validator, lets the
// rest commit far past the certificate window, then reattaches it. The
// laggard's first sync request lands below every peer's in-memory cert
// window, so catch-up must go through the chain-backed block sync path
// (KindSyncBlocks) before certificates take over near the tip.
func TestLaggardBackfillsBelowCertWindow(t *testing.T) {
	const (
		window = 8
		ahead  = 60
	)
	c, err := NewCluster(4, 41, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.SetCertWindow(window)
	}
	laggard := c.Nodes[3].id
	c.Net.Detach(laggard)
	c.Start()

	deadline := c.Net.Now() + 10*time.Hour
	c.Net.RunWhile(func() bool {
		return c.Apps[0].Chain.Height() < ahead && c.Net.Now() < deadline
	})
	if h := c.Apps[0].Chain.Height(); h < ahead {
		t.Fatalf("live quorum stalled at height %d, want %d", h, ahead)
	}
	if got := c.Nodes[0].CertCount(); got > window {
		t.Fatalf("peer retains %d certs, window is %d — laggard would not need chain sync", got, window)
	}
	if h := c.Apps[3].Chain.Height(); h != 0 {
		t.Fatalf("detached node advanced to height %d", h)
	}

	c.Net.Reattach(laggard)
	deadline = c.Net.Now() + 10*time.Hour
	c.Net.RunWhile(func() bool {
		return c.Apps[3].Chain.Height() < ahead && c.Net.Now() < deadline
	})
	if h := c.Apps[3].Chain.Height(); h < ahead {
		t.Fatalf("laggard recovered only to height %d, want >= %d", h, ahead)
	}
	for h := uint64(0); h < ahead; h++ {
		ref, err := c.Apps[0].Chain.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Apps[3].Chain.BlockAt(h)
		if err != nil {
			t.Fatalf("laggard missing height %d: %v", h, err)
		}
		if got.ID() != ref.ID() {
			t.Fatalf("laggard diverges at height %d", h)
		}
	}
}

// TestLaggardRejoinsAfterDowntimeUnderLoad cuts one validator off for a
// minute of virtual time while a trickle of transactions keeps the others
// committing: a height every 10 ms, or a propose timeout when the absent
// validator's turn comes, more heights than the certificate window and one
// sync batch together. Reattached, it must catch up through the anchors
// below the window and keep up.
func TestLaggardRejoinsAfterDowntimeUnderLoad(t *testing.T) {
	c, err := NewCluster(4, 43, idleTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	// One transaction every 10 ms, to the three live validators, until the
	// test ends.
	sender := keys.FromSeed([]byte("client"))
	var nonce uint64
	var trickle func()
	trickle = func() {
		tx, err := ledger.NewTx(sender, nonce, "news.publish", []byte("item"))
		if err != nil {
			t.Fatal(err)
		}
		nonce++
		for i := 0; i < 3; i++ {
			if err := c.Apps[i].Pool.Add(tx); err != nil {
				t.Fatal(err)
			}
			c.Nodes[i].WorkArrived()
		}
		c.Net.After(c.Nodes[0].id, 10*time.Millisecond, trickle)
	}
	c.Net.After(c.Nodes[0].id, 0, trickle)
	c.Start()
	runFor(c, time.Second)

	laggard := c.Nodes[3].id
	c.Net.Detach(laggard)
	runFor(c, time.Minute)
	behind := c.Apps[0].Chain.Height() - c.Apps[3].Chain.Height()
	if behind <= DefaultCertWindow+maxSyncBatch {
		t.Fatalf("laggard only %d heights behind: the test does not reach below the window", behind)
	}

	c.Net.Reattach(laggard)
	runFor(c, 5*time.Second)
	live, got := c.Apps[0].Chain.Height(), c.Apps[3].Chain.Height()
	if got+5 < live {
		t.Fatalf("laggard %d heights behind rejoined only to height %d of %d", behind, got, live)
	}
	for _, h := range []uint64{0, got / 2, got - 1} {
		if !c.AgreeAt(h) {
			t.Fatalf("divergence at height %d", h)
		}
	}
	t.Logf("laggard %d heights behind after a minute away, back at %d of %d", behind, got, live)
}

// TestFaultyLinksTolerated runs consensus over links that duplicate,
// corrupt and reorder traffic. The cluster must keep committing and stay
// fork-free, duplicated votes must never double-count power, and every
// rejected message must be visible in the rejection counters.
func TestFaultyLinksTolerated(t *testing.T) {
	c, err := NewCluster(4, 99, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c.Instrument(reg)
	c.Net.SetAllLinks(simnet.LinkConfig{
		BaseLatency:   5 * time.Millisecond,
		Jitter:        5 * time.Millisecond,
		DuplicateRate: 0.35,
		CorruptRate:   0.05,
		ReorderRate:   0.20,
	})
	c.Start()
	const target = 20
	c.RunUntilHeight(target, 10*time.Hour)
	if h := c.MinHeight(); h < target {
		t.Fatalf("cluster stalled at height %d under link faults, want %d", h, target)
	}
	for h := uint64(0); h < target; h++ {
		if !c.AgreeAt(h) {
			t.Fatalf("fork at height %d under link faults", h)
		}
	}

	stats := c.Net.Stats()
	if stats.Duplicated == 0 || stats.Corrupted == 0 {
		t.Fatalf("fault injection inert: %+v", stats)
	}
	voteRej := reg.CounterVec("trustnews_consensus_votes_rejected_total", "", "reason")
	if got := voteRej.With("duplicate").Value(); got == 0 {
		t.Fatal("duplicated votes were not rejected (or not counted)")
	}
	msgRej := reg.CounterVec("trustnews_consensus_messages_rejected_total", "", "reason")
	propRej := reg.CounterVec("trustnews_consensus_proposals_rejected_total", "", "reason")
	if msgRej.With("malformed").Value()+propRej.With("malformed").Value()+voteRej.With("malformed").Value() == 0 {
		t.Fatal("corrupted messages were not rejected as malformed")
	}
}

// badNonceProposer is validator v0 turned byzantine for its first
// proposal: a block whose body is valid (the one transaction is properly
// signed) but whose transaction skips its sender's nonces, so the chain
// cannot append it. Later proposals are honest.
type badNonceProposer struct {
	*ChainApp
	bad      *ledger.Tx
	proposed bool
}

func (a *badNonceProposer) ProposeBlock(height uint64) (*ledger.Block, error) {
	if a.proposed {
		return a.ChainApp.ProposeBlock(height)
	}
	a.proposed = true
	return ledger.NewBlock(height, a.Chain.HeadID(), [32]byte{}, time.Unix(1562500000, 0).UTC(), a.Proposer, []*ledger.Tx{a.bad}), nil
}

// TestBadNonceProposalDoesNotHaltCluster: a proposal that would fail to
// commit is not prevoted. Honest validators check a proposal with the
// chain's own append rules, prevote nil on one whose nonce is wrong, and a
// later round commits another block; no validator stops.
func TestBadNonceProposalDoesNotHaltCluster(t *testing.T) {
	c, err := NewCluster(4, 41, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := ledger.NewTx(keys.FromSeed([]byte("fresh-sender")), 7, "news.publish", []byte("skips nonces 0-6"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apps[0].Chain.Verifier().ValidateBody(ledger.NewBlock(0, ledger.BlockID{}, [32]byte{}, time.Unix(1562500000, 0).UTC(), c.Keys[0].Address(), []*ledger.Tx{bad})); err != nil {
		t.Fatalf("the byzantine block's body must be valid: %v", err)
	}
	v0 := c.Set.Members()[0]
	if p := c.Set.Proposer(0, 0); p.ID != v0.ID {
		t.Fatalf("height 0 round 0 proposer is %s, want %s", p.ID, v0.ID)
	}
	byz := NewNode(v0.ID, c.Keys[0], c.Set, c.Net, &badNonceProposer{ChainApp: c.Apps[0], bad: bad}, DefaultTimeouts())
	if err := c.Net.SetHandler(v0.ID, byz.Handle); err != nil {
		t.Fatal(err)
	}
	c.Nodes[0] = byz
	c.Start()
	c.RunUntilHeight(3, 20*time.Second)
	for i, n := range c.Nodes {
		if n.Stopped() {
			t.Fatalf("validator %d stopped at height %d", i, c.Apps[i].Chain.Height())
		}
	}
	if h := c.MinHeight(); h < 3 {
		t.Fatalf("cluster reached height %d, want 3", h)
	}
	for i, app := range c.Apps {
		b, err := app.Chain.BlockAt(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range b.Txs {
			if tx.ID() == bad.ID() {
				t.Fatalf("validator %d committed the bad-nonce transaction", i)
			}
		}
	}
	if !c.AgreeAt(0) {
		t.Fatal("validators disagree on height 0")
	}
}
