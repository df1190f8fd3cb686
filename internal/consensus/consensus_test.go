package consensus

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

func submitTxs(t testing.TB, c *Cluster, count int) {
	t.Helper()
	sender := keys.FromSeed([]byte("client"))
	for i := 0; i < count; i++ {
		tx, err := ledger.NewTx(sender, uint64(i), "news.publish", []byte("item-"+strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SubmitAll(tx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidatorSetBasics(t *testing.T) {
	if _, err := NewValidatorSet(nil); err != ErrEmptyValidatorSet {
		t.Fatalf("want ErrEmptyValidatorSet, got %v", err)
	}
	kp := keys.FromSeed([]byte("v"))
	set, err := NewValidatorSet([]Validator{{ID: "a", Addr: kp.Address(), Pub: kp.Public(), Power: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if set.TotalPower() != 3 || set.QuorumPower() != 3 {
		t.Fatalf("power=%d quorum=%d", set.TotalPower(), set.QuorumPower())
	}
}

func TestValidatorSetRejectsZeroPower(t *testing.T) {
	kp := keys.FromSeed([]byte("v"))
	if _, err := NewValidatorSet([]Validator{{ID: "a", Addr: kp.Address(), Pub: kp.Public(), Power: 0}}); err == nil {
		t.Fatal("want error for zero power")
	}
}

func TestQuorumPowerIsStrictTwoThirds(t *testing.T) {
	mk := func(n int) *ValidatorSet {
		vals := make([]Validator, n)
		for i := range vals {
			kp := keys.FromSeed([]byte("q" + strconv.Itoa(i)))
			vals[i] = Validator{ID: simnet.NodeID("n" + strconv.Itoa(i)), Addr: kp.Address(), Pub: kp.Public(), Power: 1}
		}
		s, err := NewValidatorSet(vals)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := map[int]int64{3: 3, 4: 3, 7: 5, 10: 7}
	for n, want := range cases {
		if got := mk(n).QuorumPower(); got != want {
			t.Errorf("n=%d quorum=%d want %d", n, got, want)
		}
	}
}

func TestProposerRotationDeterministicAndCovering(t *testing.T) {
	c, err := NewCluster(4, 1, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[keys.Address]bool)
	for h := uint64(0); h < 40; h++ {
		p1 := c.Set.Proposer(h, 0)
		p2 := c.Set.Proposer(h, 0)
		if p1.Addr != p2.Addr {
			t.Fatal("proposer not deterministic")
		}
		seen[p1.Addr] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rotation covered %d of 4 validators", len(seen))
	}
}

func TestVoteSignVerify(t *testing.T) {
	c, _ := NewCluster(4, 1, DefaultTimeouts())
	v := Vote{Type: VotePrevote, Height: 1, Round: 0, Voter: c.Keys[0].Address()}
	SignVote(&v, c.Keys[0])
	if err := VerifyVote(&v, c.Set); err != nil {
		t.Fatal(err)
	}
	v.Round = 1 // tamper
	if err := VerifyVote(&v, c.Set); err == nil {
		t.Fatal("want verification failure after tamper")
	}
	outsider := keys.FromSeed([]byte("outsider"))
	v2 := Vote{Type: VotePrevote, Height: 1, Voter: outsider.Address()}
	SignVote(&v2, outsider)
	if err := VerifyVote(&v2, c.Set); err == nil {
		t.Fatal("want rejection of non-validator vote")
	}
}

func TestVoteSetEquivocationDetected(t *testing.T) {
	vs := newVoteSet()
	voter := keys.FromSeed([]byte("x")).Address()
	v1 := Vote{Type: VotePrevote, Height: 1, BlockID: ledger.BlockID{1}, Voter: voter}
	v2 := Vote{Type: VotePrevote, Height: 1, BlockID: ledger.BlockID{2}, Voter: voter}
	if err := vs.add(v1, 1); err != nil {
		t.Fatal(err)
	}
	if err := vs.add(v1, 1); !errors.Is(err, ErrDuplicateVote) {
		t.Fatalf("duplicate identical vote must surface as ErrDuplicateVote, got %v", err)
	}
	if err := vs.add(v2, 1); !errors.Is(err, ErrEquivocation) {
		t.Fatalf("want equivocation error, got %v", err)
	}
	if vs.totalPower() != 1 {
		t.Fatalf("power=%d; duplicates must not double-count", vs.totalPower())
	}
}

func TestHappyPathCommits(t *testing.T) {
	c, err := NewCluster(4, 7, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	submitTxs(t, c, 20)
	c.Start()
	c.RunUntilHeight(3, 30*time.Second)
	if got := c.MinHeight(); got < 3 {
		t.Fatalf("min height=%d want >=3", got)
	}
	for h := uint64(0); h < 3; h++ {
		if !c.AgreeAt(h) {
			t.Fatalf("divergence at height %d", h)
		}
	}
}

func TestCommittedBlocksCarryTransactions(t *testing.T) {
	c, _ := NewCluster(4, 3, DefaultTimeouts())
	submitTxs(t, c, 5)
	c.Start()
	c.RunUntilHeight(1, 30*time.Second)
	b, err := c.Apps[0].Chain.BlockAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Txs) != 5 {
		t.Fatalf("block carried %d txs, want 5", len(b.Txs))
	}
	// All mempools drained on every node that committed.
	for i, app := range c.Apps {
		if app.Chain.Height() >= 1 && app.Pool.Size() != 0 {
			t.Fatalf("node %d mempool size %d after commit", i, app.Pool.Size())
		}
	}
}

func TestProgressWithOneCrashedValidator(t *testing.T) {
	c, _ := NewCluster(4, 11, DefaultTimeouts())
	submitTxs(t, c, 10)
	c.Nodes[3].Stop() // f=1 of n=4
	c.Start()
	c.RunUntilHeight(2, 60*time.Second)
	if got := c.MinHeight(); got < 2 {
		t.Fatalf("min live height=%d want >=2 with one crash", got)
	}
}

func TestNoProgressWithTwoCrashedOfFour(t *testing.T) {
	c, _ := NewCluster(4, 13, DefaultTimeouts())
	submitTxs(t, c, 10)
	c.Nodes[2].Stop()
	c.Nodes[3].Stop() // 2 > f: quorum unreachable
	c.Start()
	c.RunUntilHeight(1, 5*time.Second)
	if got := c.MinHeight(); got != 0 {
		t.Fatalf("height=%d; must not commit without quorum", got)
	}
}

func TestSafetyUnderPartition(t *testing.T) {
	c, _ := NewCluster(4, 17, DefaultTimeouts())
	submitTxs(t, c, 10)
	// Split 2-2: neither side has quorum, so no commits may happen.
	c.Net.Partition([]simnet.NodeID{"v0", "v1"}, []simnet.NodeID{"v2", "v3"})
	c.Start()
	c.RunUntilHeight(1, 3*time.Second)
	if got := c.MinHeight(); got != 0 {
		t.Fatalf("committed during 2-2 partition: height=%d", got)
	}
	// Heal: progress resumes and everyone agrees.
	c.Net.Heal()
	c.RunUntilHeight(1, 120*time.Second)
	if got := c.MinHeight(); got < 1 {
		t.Fatalf("no progress after heal: height=%d", got)
	}
	if !c.AgreeAt(0) {
		t.Fatal("divergence after partition heal")
	}
}

func TestSafetyWithEquivocator(t *testing.T) {
	// 4 validators, one replaced by an equivocator: honest nodes must
	// still agree on every committed height.
	net := simnet.New(23)
	kps := make([]*keys.KeyPair, 4)
	vals := make([]Validator, 4)
	for i := range kps {
		kps[i] = keys.FromSeed([]byte("validator-" + strconv.Itoa(i)))
		vals[i] = Validator{ID: simnet.NodeID("v" + strconv.Itoa(i)), Addr: kps[i].Address(), Pub: kps[i].Public(), Power: 1}
	}
	set, err := NewValidatorSet(vals)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	var apps []*ChainApp
	for i := 0; i < 3; i++ {
		app := &ChainApp{Chain: ledger.NewMemChain(), Proposer: kps[i].Address()}
		app.Pool = ledger.NewMempool(app.Chain, 0)
		n := NewNode(vals[i].ID, kps[i], set, net, app, DefaultTimeouts())
		if err := n.Bind(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		apps = append(apps, app)
	}
	eq := NewEquivocator(vals[3].ID, kps[3], set, net)
	if err := eq.Bind(); err != nil {
		t.Fatal(err)
	}
	client := keys.FromSeed([]byte("client"))
	for i := 0; i < 6; i++ {
		tx, _ := ledger.NewTx(client, uint64(i), "k", []byte{byte(i)})
		for _, app := range apps {
			app.Pool.Add(tx)
		}
	}
	for _, n := range nodes {
		n.Start()
	}
	net.RunWhile(func() bool {
		for _, app := range apps {
			if app.Chain.Height() < 1 {
				return net.Now() < 120*time.Second
			}
		}
		return false
	})
	// Honest quorum is 3 of 4; equivocator can delay but not block or split.
	var ref ledger.BlockID
	committed := 0
	for _, app := range apps {
		if app.Chain.Height() >= 1 {
			b, _ := app.Chain.BlockAt(0)
			if committed == 0 {
				ref = b.ID()
			} else if b.ID() != ref {
				t.Fatal("SAFETY VIOLATION: honest nodes committed different blocks")
			}
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no honest node committed despite honest quorum")
	}
	// Equivocation must be observed by at least one honest node.
	evidence := 0
	for _, n := range nodes {
		evidence += n.Metrics().Equivocations
	}
	if evidence == 0 {
		t.Fatal("equivocation went undetected")
	}
}

func TestLaggardCatchesUpViaCommitCert(t *testing.T) {
	c, _ := NewCluster(4, 29, DefaultTimeouts())
	submitTxs(t, c, 30)
	// v3 is on a slow, lossy link.
	for _, other := range []simnet.NodeID{"v0", "v1", "v2"} {
		c.Net.SetLink(other, "v3", simnet.LinkConfig{BaseLatency: 60 * time.Millisecond, Jitter: 40 * time.Millisecond, LossRate: 0.3})
		c.Net.SetLink("v3", other, simnet.LinkConfig{BaseLatency: 60 * time.Millisecond, Jitter: 40 * time.Millisecond, LossRate: 0.3})
	}
	c.Start()
	c.RunUntilHeight(3, 240*time.Second)
	if got := c.Apps[3].Chain.Height(); got < 1 {
		t.Fatalf("laggard height=%d; commit certs should let it catch up", got)
	}
	for h := uint64(0); h < c.Apps[3].Chain.Height(); h++ {
		if !c.AgreeAt(h) {
			t.Fatalf("laggard diverged at height %d", h)
		}
	}
}

func TestCommitCertVerification(t *testing.T) {
	c, _ := NewCluster(4, 31, DefaultTimeouts())
	blk := ledger.NewBlock(0, ledger.BlockID{}, [32]byte{}, time.Unix(0, 0).UTC(), c.Keys[0].Address(), nil)
	id := blk.ID()
	mkVote := func(i int, id ledger.BlockID) Vote {
		v := Vote{Type: VotePrecommit, Height: 0, Round: 0, BlockID: id, Voter: c.Keys[i].Address()}
		SignVote(&v, c.Keys[i])
		return v
	}
	quorum := []Vote{mkVote(0, id), mkVote(1, id), mkVote(2, id)}
	other := ledger.BlockID{0xbd}
	cases := []struct {
		name string
		cert *Commit
		ok   bool
	}{
		{"3 of 4", &Commit{Height: 0, BlockID: id, Quorum: quorum}, true},
		{"2 of 4", &Commit{Height: 0, BlockID: id, Quorum: quorum[:2]}, false},
		{"duplicate voter", &Commit{Height: 0, BlockID: id, Quorum: []Vote{quorum[0], quorum[0], quorum[1]}}, false},
		{"height mismatch", &Commit{Height: 1, BlockID: id, Quorum: quorum}, false},
		{"votes sign another id", &Commit{Height: 0, BlockID: other, Quorum: quorum}, false},
		{"one vote signs another id", &Commit{Height: 0, BlockID: id, Quorum: []Vote{quorum[0], quorum[1], mkVote(2, other)}}, false},
		{"nil-block quorum", &Commit{Height: 0, Quorum: []Vote{mkVote(0, ledger.BlockID{}), mkVote(1, ledger.BlockID{}), mkVote(2, ledger.BlockID{})}}, false},
	}
	for _, tc := range cases {
		if err := VerifyCommit(tc.cert, c.Set); (err == nil) != tc.ok {
			t.Errorf("%s: VerifyCommit = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// certHarness is one node of a 4-validator set driven by hand: the test
// plays the three peers, so it decides exactly which messages the node
// sees. sent collects what the node sends to v1.
type certHarness struct {
	c    *Cluster
	node *Node
	app  *ChainApp
	reg  *telemetry.Registry
	sent []simnet.Message
}

func newCertHarness(t *testing.T) *certHarness {
	t.Helper()
	c, err := NewCluster(4, 5, DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c.Instrument(reg)
	h := &certHarness{c: c, node: c.Nodes[0], app: c.Apps[0], reg: reg}
	for _, id := range []simnet.NodeID{"v1", "v2", "v3"} {
		id := id
		err := c.Net.SetHandler(id, func(m simnet.Message) {
			if id == "v1" {
				h.sent = append(h.sent, m)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Only v0 runs: it proposes a block of its own at height 0 that never
	// gathers a quorum, and holds no other body.
	h.node.Start()
	return h
}

// cert builds a height-0 certificate for id signed by the given validators.
func (h *certHarness) cert(id ledger.BlockID, voters ...int) *Commit {
	cert := &Commit{Height: 0, BlockID: id}
	for _, i := range voters {
		v := Vote{Type: VotePrecommit, Height: 0, BlockID: id, Voter: h.c.Keys[i].Address()}
		SignVote(&v, h.c.Keys[i])
		cert.Quorum = append(cert.Quorum, v)
	}
	return cert
}

func (h *certHarness) deliver(kind string, payload any) {
	h.node.Handle(simnet.Message{From: "v1", To: "v0", Kind: kind, Payload: payload})
	h.c.Net.Run(h.c.Net.Now() + 20*time.Millisecond) // let what the node sent arrive
}

// pulls returns the heights v0 asked v1 for.
func (h *certHarness) pulls() []uint64 {
	var out []uint64
	for _, m := range h.sent {
		if req, ok := m.Payload.(SyncRequest); ok && m.Kind == KindSyncRequest {
			out = append(out, req.Height)
		}
	}
	return out
}

// A node that missed the proposal gets the votes-only announcement, pulls
// the body from the announcer, checks it against the certified id and
// commits. Forged announcements and forged bodies change nothing.
func TestCommitAnnouncementPullsMissingBody(t *testing.T) {
	blk := func(h *certHarness, proposer int) *ledger.Block {
		return ledger.NewBlock(0, ledger.BlockID{}, [32]byte{}, time.Unix(0, 0).UTC(), h.c.Keys[proposer].Address(), nil)
	}
	cases := []struct {
		name string
		// announce and answer build the two messages v1 sends.
		announce func(h *certHarness, b *ledger.Block) *Commit
		answer   func(h *certHarness, b *ledger.Block) *SyncResponse
		rejected string // rejection reason counted, "" when the node commits
	}{
		{
			name:     "pull, verify, commit",
			announce: func(h *certHarness, b *ledger.Block) *Commit { return h.cert(b.ID(), 1, 2, 3) },
			answer: func(h *certHarness, b *ledger.Block) *SyncResponse {
				return &SyncResponse{From: 0, Blocks: []*ledger.Block{b}, Certs: []*Commit{h.cert(b.ID(), 1, 2, 3)}}
			},
		},
		{
			name: "votes sign a different id",
			announce: func(h *certHarness, b *ledger.Block) *Commit {
				c := h.cert(blk(h, 2).ID(), 1, 2, 3)
				c.BlockID = b.ID()
				return c
			},
			rejected: "bad_certificate",
		},
		{
			name:     "below quorum",
			announce: func(h *certHarness, b *ledger.Block) *Commit { return h.cert(b.ID(), 1, 2) },
			rejected: "bad_certificate",
		},
		{
			name:     "pulled body hashes to another id",
			announce: func(h *certHarness, b *ledger.Block) *Commit { return h.cert(b.ID(), 1, 2, 3) },
			answer: func(h *certHarness, b *ledger.Block) *SyncResponse {
				return &SyncResponse{From: 0, Blocks: []*ledger.Block{blk(h, 2)}, Certs: []*Commit{h.cert(b.ID(), 1, 2, 3)}}
			},
			rejected: "bad_sync_run",
		},
		{
			name:     "sync answer with no body",
			announce: func(h *certHarness, b *ledger.Block) *Commit { return h.cert(b.ID(), 1, 2, 3) },
			answer: func(h *certHarness, b *ledger.Block) *SyncResponse {
				return &SyncResponse{From: 0, Certs: []*Commit{h.cert(b.ID(), 1, 2, 3)}}
			},
			rejected: "malformed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newCertHarness(t)
			b := blk(h, 1)
			h.deliver(KindCommit, tc.announce(h, b))
			if early := h.pulls(); len(early) != 0 {
				t.Fatalf("pulled %v before the proposal had its time to arrive", early)
			}
			h.c.Net.Run(h.c.Net.Now() + DefaultTimeouts().Propose)
			pulls := h.pulls()
			if tc.answer == nil {
				if len(pulls) != 0 {
					t.Fatal("a forged announcement triggered a pull")
				}
			} else {
				if len(pulls) != 1 || pulls[0] != 0 {
					t.Fatalf("sync requests after an announcement for a missing body: %v, want one for height 0", pulls)
				}
				if got := h.reg.Counter("trustnews_consensus_block_pulls_total", "").Value(); got != 1 {
					t.Fatalf("block pulls counted: %d, want 1", got)
				}
				h.deliver(KindSyncBlocks, tc.answer(h, b))
			}
			if tc.rejected != "" {
				rej := h.reg.CounterVec("trustnews_consensus_messages_rejected_total", "", "reason")
				if got := rej.With(tc.rejected).Value(); got != 1 {
					t.Fatalf("rejections counted as %q: %d, want 1", tc.rejected, got)
				}
				if h.app.Chain.Height() != 0 || h.node.Height() != 0 {
					t.Fatalf("rejected message changed state: chain %d, node %d", h.app.Chain.Height(), h.node.Height())
				}
				return
			}
			if h.app.Chain.Height() != 1 || h.node.Height() != 1 {
				t.Fatalf("chain height %d, node height %d after the pull, want 1", h.app.Chain.Height(), h.node.Height())
			}
			got, cert, err := h.app.BlockAt(0)
			if err != nil || got.ID() != b.ID() || cert.BlockID != b.ID() {
				t.Fatalf("committed %v with certificate %v (err %v), want %s", got, cert, err, b.ID().Short())
			}
		})
	}
}

// Proposal and certificate travel on different links, so a node can read
// the certificate first. It holds it for the proposal timeout instead of
// pulling, and the proposal commits the height: no pull, then or later.
func TestCertificateAheadOfProposalDoesNotPull(t *testing.T) {
	h := newCertHarness(t)
	// v0 proposed round 0 itself; the certified block is round 1's.
	const round = 1
	proposer := -1
	for i, kp := range h.c.Keys {
		if kp.Address() == h.node.set.Proposer(0, round).Addr {
			proposer = i
		}
	}
	if proposer <= 0 {
		t.Fatalf("round %d proposer is validator %d, want a peer of v0", round, proposer)
	}
	b := ledger.NewBlock(0, ledger.BlockID{}, [32]byte{}, time.Unix(0, 0).UTC(), h.c.Keys[proposer].Address(), nil)
	h.deliver(KindCommit, h.cert(b.ID(), 1, 2, 3))
	if h.node.Height() != 0 {
		t.Fatalf("node height %d on a certificate without a body", h.node.Height())
	}
	p := &Proposal{Height: 0, Round: round, POLRound: -1, Block: b, Proposer: h.c.Keys[proposer].Address()}
	SignProposal(p, h.c.Keys[proposer])
	h.deliver(KindProposal, p)
	if h.app.Chain.Height() != 1 || h.node.Height() != 1 {
		t.Fatalf("chain %d, node %d after the late proposal, want 1 each", h.app.Chain.Height(), h.node.Height())
	}
	if got, cert, err := h.app.BlockAt(0); err != nil || got.ID() != b.ID() || cert.BlockID != b.ID() {
		t.Fatalf("committed %v with certificate %v (err %v), want %s", got, cert, err, b.ID().Short())
	}
	h.c.Net.Run(h.c.Net.Now() + 2*DefaultTimeouts().Propose)
	if pulls := h.pulls(); len(pulls) != 0 || h.reg.Counter("trustnews_consensus_block_pulls_total", "").Value() != 0 {
		t.Fatalf("pulled %v although the proposal brought the body", pulls)
	}
}

func TestBFTScalesAcrossValidatorCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-size consensus run")
	}
	for _, n := range []int{4, 7, 10} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c, err := NewCluster(n, int64(n), DefaultTimeouts())
			if err != nil {
				t.Fatal(err)
			}
			submitTxs(t, c, 10)
			c.Start()
			c.RunUntilHeight(2, 120*time.Second)
			if got := c.MinHeight(); got < 2 {
				t.Fatalf("n=%d min height=%d", n, got)
			}
			for h := uint64(0); h < 2; h++ {
				if !c.AgreeAt(h) {
					t.Fatalf("divergence at h=%d", h)
				}
			}
		})
	}
}

func BenchmarkBFTCommit(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("validators=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := NewCluster(n, int64(i), DefaultTimeouts())
				if err != nil {
					b.Fatal(err)
				}
				sender := keys.FromSeed([]byte("client"))
				for j := 0; j < 10; j++ {
					tx, _ := ledger.NewTx(sender, uint64(j), "k", []byte{byte(j)})
					c.SubmitAll(tx)
				}
				c.Start()
				b.StartTimer()
				c.RunUntilHeight(1, 60*time.Second)
				if c.MinHeight() < 1 {
					b.Fatal("no commit")
				}
			}
		})
	}
}

func TestProgressWithDelayedValidator(t *testing.T) {
	// One honest-but-slow validator (wrapped in DelayedNode) must not
	// prevent the cluster from committing, and must still converge.
	net := simnet.New(51)
	kps := make([]*keys.KeyPair, 4)
	vals := make([]Validator, 4)
	for i := range kps {
		kps[i] = keys.FromSeed([]byte("validator-" + strconv.Itoa(i)))
		vals[i] = Validator{ID: simnet.NodeID("v" + strconv.Itoa(i)), Addr: kps[i].Address(), Pub: kps[i].Public(), Power: 1}
	}
	set, err := NewValidatorSet(vals)
	if err != nil {
		t.Fatal(err)
	}
	var apps []*ChainApp
	var nodes []*Node
	for i := 0; i < 4; i++ {
		app := &ChainApp{Chain: ledger.NewMemChain(), Proposer: kps[i].Address(), AllowEmpty: true}
		app.Pool = ledger.NewMempool(app.Chain, 0)
		node := NewNode(vals[i].ID, kps[i], set, net, app, DefaultTimeouts())
		if i == 3 {
			d := NewDelayedNode(node, net, vals[i].ID, 150*time.Millisecond)
			if err := d.Bind(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := node.Bind(); err != nil {
				t.Fatal(err)
			}
		}
		apps = append(apps, app)
		nodes = append(nodes, node)
	}
	for _, n := range nodes {
		n.Start()
	}
	net.RunWhile(func() bool {
		fast := 0
		for i := 0; i < 3; i++ {
			if apps[i].Chain.Height() >= 2 {
				fast++
			}
		}
		return fast < 3 && net.Now() < 5*time.Minute
	})
	for i := 0; i < 3; i++ {
		if apps[i].Chain.Height() < 2 {
			t.Fatalf("fast node %d stalled at %d", i, apps[i].Chain.Height())
		}
	}
	// No divergence between any nodes that share a height.
	for h := uint64(0); h < 2; h++ {
		var ref ledger.BlockID
		seen := false
		for _, app := range apps {
			b, err := app.Chain.BlockAt(h)
			if err != nil {
				continue
			}
			if !seen {
				ref, seen = b.ID(), true
				continue
			}
			if b.ID() != ref {
				t.Fatalf("divergence at height %d with delayed node", h)
			}
		}
	}
}

func TestLateJoinerSyncsViaBlockSync(t *testing.T) {
	// Validator v3 is in the set but offline (no-op handler) while the
	// others commit several heights; when it comes online it must backfill
	// every missed block through sync requests and converge.
	net := simnet.New(61)
	kps := make([]*keys.KeyPair, 4)
	vals := make([]Validator, 4)
	for i := range kps {
		kps[i] = keys.FromSeed([]byte("validator-" + strconv.Itoa(i)))
		vals[i] = Validator{ID: simnet.NodeID("v" + strconv.Itoa(i)), Addr: kps[i].Address(), Pub: kps[i].Public(), Power: 1}
	}
	set, err := NewValidatorSet(vals)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*ChainApp, 4)
	nodes := make([]*Node, 4)
	for i := 0; i < 4; i++ {
		apps[i] = &ChainApp{Chain: ledger.NewMemChain(), Proposer: kps[i].Address(), AllowEmpty: true}
		apps[i].Pool = ledger.NewMempool(apps[i].Chain, 0)
		nodes[i] = NewNode(vals[i].ID, kps[i], set, net, apps[i], DefaultTimeouts())
	}
	for i := 0; i < 3; i++ {
		if err := nodes[i].Bind(); err != nil {
			t.Fatal(err)
		}
	}
	// v3 offline: swallow everything.
	if err := net.AddNode("v3", func(simnet.Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		nodes[i].Start()
	}
	const missed = 4
	net.RunWhile(func() bool {
		for i := 0; i < 3; i++ {
			if apps[i].Chain.Height() < missed {
				return net.Now() < 2*time.Minute
			}
		}
		return false
	})
	if apps[0].Chain.Height() < missed {
		t.Fatalf("live nodes stalled at %d", apps[0].Chain.Height())
	}

	// v3 comes online at height 0.
	if err := net.SetHandler("v3", nodes[3].Handle); err != nil {
		t.Fatal(err)
	}
	nodes[3].Start()
	target := apps[0].Chain.Height()
	net.RunWhile(func() bool {
		return apps[3].Chain.Height() < target && net.Now() < 6*time.Minute
	})
	if apps[3].Chain.Height() < target {
		t.Fatalf("late joiner stuck at %d, want %d", apps[3].Chain.Height(), target)
	}
	// Same blocks everywhere.
	for h := uint64(0); h < target; h++ {
		ref, err := apps[0].Chain.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := apps[3].Chain.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != ref.ID() {
			t.Fatalf("late joiner diverged at height %d", h)
		}
	}
}
