package consensus

import (
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// TestLaggardBackfillsFromChain detaches one validator, lets the rest
// commit 60 heights, then reattaches it. Catch-up goes through block sync
// (KindSyncBlocks): the peers read every block and its certificate from
// their chains.
func TestLaggardBackfillsFromChain(t *testing.T) {
	const ahead = 60
	c, err := NewCluster(4, 41, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
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
// validator's turn comes, several hundred heights in all. Reattached, it
// must catch up through block sync and keep up.
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
	if behind < 512 {
		t.Fatalf("laggard only %d heights behind: the downtime is too short to test", behind)
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

// catchUp drives the cluster until node i's chain is as high as node 0's,
// for at most d of virtual time, and returns the two heights.
func catchUp(c *Cluster, i int, d time.Duration) (live, got uint64) {
	end := c.Net.Now() + d
	c.Net.RunWhile(func() bool {
		return c.Apps[i].Chain.Height() < c.Apps[0].Chain.Height() && c.Net.Now() < end
	})
	return c.Apps[0].Chain.Height(), c.Apps[i].Chain.Height()
}

// TestLaggardRejoinsRestartedPeers: a validator away from height 0 while
// the other three commit 1 000 heights and then restart, keeping only
// their chains, rejoins from those chains. Every node keeps its whole
// history, agrees with the others from height 0 to the tip, and stores
// each block with a certificate for its own height and id.
func TestLaggardRejoinsRestartedPeers(t *testing.T) {
	const ahead = 1000
	c, err := NewCluster(4, 41, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	laggard := c.Nodes[3]
	c.Net.Detach(laggard.id)
	c.Start()
	c.Net.RunWhile(func() bool { return c.Apps[0].Chain.Height() < ahead && c.Net.Now() < time.Hour })
	if h := c.Apps[0].Chain.Height(); h < ahead {
		t.Fatalf("three validators stalled at height %d, want %d", h, ahead)
	}
	for i, old := range c.Nodes[:3] {
		old.Stop()
		n := NewNode(old.id, c.Keys[i], c.Set, c.Net, c.Apps[i], DefaultTimeouts())
		if err := c.Net.SetHandler(n.id, n.Handle); err != nil {
			t.Fatal(err)
		}
		c.Nodes[i] = n
		n.StartAt(c.Apps[i].Chain.Height())
	}

	// Time the laggard's handling of sync answers: per synced block, the
	// certificate check and the apply.
	var syncWall time.Duration
	var synced uint64
	err = c.Net.SetHandler(laggard.id, func(m simnet.Message) {
		if m.Kind != KindSyncBlocks {
			laggard.Handle(m)
			return
		}
		before, start := c.Apps[3].Chain.Height(), time.Now()
		laggard.Handle(m)
		syncWall += time.Since(start)
		synced += c.Apps[3].Chain.Height() - before
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Reattach(laggard.id)
	live, got := catchUp(c, 3, time.Minute)
	if got < live {
		t.Fatalf("laggard rejoined restarted peers only to height %d of %d", got, live)
	}
	runFor(c, time.Second)
	if h := c.MinHeight(); h < got+10 {
		t.Fatalf("cluster at height %d a second after the laggard caught up at %d", h, got)
	}
	live, got = c.Apps[0].Chain.Height(), c.Apps[3].Chain.Height()
	for _, h := range []uint64{0, got / 2, got - 1} {
		if !c.AgreeAt(h) {
			t.Fatalf("fork at height %d", h)
		}
	}
	for i, app := range c.Apps {
		for h := uint64(0); h < app.Chain.Height(); h++ {
			b, cert, err := app.BlockAt(h)
			if err != nil {
				t.Fatalf("node %d height %d: %v", i, h, err)
			}
			if err := VerifyCommit(cert, c.Set); err != nil || cert.Height != h || cert.BlockID != b.ID() {
				t.Fatalf("node %d height %d: certificate for height %d block %s (%v), want block %s",
					i, h, cert.Height, cert.BlockID.Short(), err, b.ID().Short())
			}
		}
	}
	if synced < ahead {
		t.Fatalf("laggard synced %d blocks, want at least %d", synced, ahead)
	}
	t.Logf("laggard back at %d of %d; %d blocks synced at %.1f µs each (certificate check and apply)",
		got, live, synced, float64(syncWall.Microseconds())/float64(synced))
}

// TestLostSyncAnswerIsAskedAgain: a laggard whose first sync answer is
// lost asks again while it is still at the height it asked for, with and
// without an idle bound.
func TestLostSyncAnswerIsAskedAgain(t *testing.T) {
	for _, tc := range []struct {
		name string
		tmo  Timeouts
	}{{"default", DefaultTimeouts()}, {"idle", idleTimeouts()}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(4, 41, tc.tmo)
			if err != nil {
				t.Fatal(err)
			}
			laggard := c.Nodes[3].id
			c.Net.Detach(laggard)
			c.Start()
			runFor(c, 3*time.Second)

			lost := 0
			c.Net.SetCorrupter(func(m simnet.Message) simnet.Message {
				if m.Kind == KindSyncBlocks && lost == 0 {
					lost++
					m.Payload = nil
				}
				return m
			})
			for _, n := range c.Nodes[:3] {
				c.Net.SetLink(n.id, laggard, simnet.LinkConfig{BaseLatency: 5 * time.Millisecond, Jitter: 5 * time.Millisecond, CorruptRate: 1})
			}
			c.Net.Reattach(laggard)
			live, got := catchUp(c, 3, time.Minute)
			if lost != 1 {
				t.Fatal("no sync answer was lost")
			}
			if got < live {
				t.Fatalf("laggard reached height %d of %d after losing one sync answer", got, live)
			}
			for _, h := range []uint64{0, got / 2, got - 1} {
				if !c.AgreeAt(h) {
					t.Fatalf("fork at height %d", h)
				}
			}
		})
	}
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
