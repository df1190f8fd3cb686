package consensus

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// TestCertWindowBounded runs a cluster for many heights and checks that
// in-memory certificate retention stays within the configured sliding
// window on every node — in count and in bytes: a certificate holds votes,
// never a block body — while the chain itself keeps every block.
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
		// Size of the retained certificates in the wire codec's layout
		// (height, block id, vote count, then per vote: type, height,
		// round, block id, voter, length-prefixed signature).
		retained := 0
		for _, cert := range n.certs {
			retained += 8 + 32 + 4
			for _, v := range cert.Quorum {
				retained += 1 + 8 + 8 + 32 + len(v.Voter) + 4 + len(v.Sig)
			}
		}
		if retained > window*1024 {
			t.Fatalf("node %d retains %d bytes of certificates, want at most %d (window %d x 1 KB)", i, retained, window*1024, window)
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
