package consensus

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// App is the application driven by consensus: it builds blocks to propose,
// validates proposed blocks, and applies committed blocks. The blockchain
// node (internal/platform) implements it over a mempool and chain.
type App interface {
	// ProposeBlock assembles the block to propose at the given height.
	ProposeBlock(height uint64) (*ledger.Block, error)
	// ValidateBlock checks a proposed block against application rules.
	ValidateBlock(b *ledger.Block) error
	// CommitBlock applies a decided block. It must not fail for a block
	// that passed ValidateBlock against the same state.
	CommitBlock(b *ledger.Block) error
	// BlockAt returns the committed block at the given height. Block sync
	// is served from it: a node keeps no block bodies of its own.
	BlockAt(height uint64) (*ledger.Block, error)
}

// Timeouts configures the per-step timeouts. Each escalating round adds
// Delta to the base timeout, per the Tendermint algorithm.
type Timeouts struct {
	Propose   time.Duration
	Prevote   time.Duration
	Precommit time.Duration
	Delta     time.Duration
	// Commit is an optional pause between committing a height and entering
	// the next one (Tendermint's timeout_commit). Real deployments set it
	// to pace block production, so that a block gathers a batch of
	// transactions instead of the chain racing ahead at network speed.
	// Rejoining does not depend on it: block sync serves any committed
	// height from the chain. Zero — the default and every virtual-time
	// test — starts the next height immediately.
	Commit time.Duration
}

// DefaultTimeouts suits the default simnet LAN profile.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		Propose:   80 * time.Millisecond,
		Prevote:   60 * time.Millisecond,
		Precommit: 60 * time.Millisecond,
		Delta:     40 * time.Millisecond,
	}
}

// Metrics aggregates per-node consensus counters.
type Metrics struct {
	Committed     uint64
	Rounds        int
	Equivocations int
	// SendErrors counts outbound messages the transport refused locally
	// (unknown peer, full queue, closed transport). Losses in flight are
	// not observable and surface as timeouts instead.
	SendErrors    uint64
	CommitLatency time.Duration // cumulative height start -> commit
	lastHeightAt  time.Duration
}

// Node is one BFT consensus participant. Construct with NewNode, register
// its network handler with Bind, then Start it. All methods run on the
// simnet event loop (single-threaded), so no internal locking is needed.
type Node struct {
	id  transport.NodeID
	kp  *keys.KeyPair
	set *ValidatorSet
	net transport.Network
	app App
	tmo Timeouts

	height uint64
	round  int
	step   Step

	locked      *ledger.Block
	lockedRound int
	valid       *ledger.Block
	validRound  int

	proposals map[uint64]map[int]*Proposal // height -> round -> proposal
	prevotes  map[uint64]map[int]*voteSet
	precommit map[uint64]map[int]*voteSet
	blocks    map[ledger.BlockID]*ledger.Block

	// future buffers messages for heights we have not reached yet; they
	// are replayed after each height advance. Without this, a node that
	// commits late would drop the next height's proposal forever.
	future []transport.Message

	// certs retains the commit certificates this node produced or
	// received, keyed by height, so it can serve block sync to validators
	// that join (or recover) late. A certificate is votes only; the bodies
	// a sync answer carries are read from the chain app (see serveSync).
	// Retention is bounded to a sliding window of certWindow heights, a
	// few hundred bytes each, no matter how long the node runs.
	certs map[uint64]*Commit
	// certFloor is the lowest height that may still hold a certificate.
	certFloor uint64
	// certWindow bounds len(certs); zero means DefaultCertWindow.
	certWindow int
	// syncRequested tracks the last height we asked a peer to backfill,
	// to avoid flooding duplicate requests.
	syncRequested uint64
	// awaited is a verified certificate for the current height whose body
	// has not arrived yet (see onCommit); nil otherwise.
	awaited *Commit

	metrics Metrics
	stopped bool
	// paused is set while the node rests between committing a height and
	// entering the next one (Timeouts.Commit); cleared by startRound.
	paused bool

	tm consensusMetrics
	// roundStartAt is the virtual time the current round began; valid
	// once roundStarted is set. It feeds the round-duration histogram.
	roundStartAt time.Duration
	roundStarted bool
	// stepAt is the virtual time the current step was entered; valid while
	// stepOpen, which is false between a height's apply and the next
	// round's start (the Timeouts.Commit pause belongs to no step).
	stepAt   time.Duration
	stepOpen bool
}

// consensusMetrics holds the node's cached instrument handles (nil until
// Instrument; every method is nil-safe). A cluster shares one registry,
// so the series aggregate across validators.
type consensusMetrics struct {
	rounds        *telemetry.Counter
	commits       *telemetry.Counter
	votePrevote   *telemetry.Counter
	votePrecommit *telemetry.Counter
	propRejected  *telemetry.CounterVec
	voteRejected  *telemetry.CounterVec
	msgRejected   *telemetry.CounterVec
	blockPulls    *telemetry.Counter
	equivocations *telemetry.Counter
	roundSec      *telemetry.Histogram
	heightSec     *telemetry.Histogram
	// stepSec and applySec split a height's time
	// (trustnews_consensus_step_seconds): the round steps, indexed by
	// Step, and the apply of the decided block.
	stepSec  [StepPrecommit + 1]*telemetry.Histogram
	applySec *telemetry.Histogram
	// sends/sendErrors are the shared trustnews_transport_* series: the
	// consensus layer is the counting point for message submission, the
	// TCP writer adds async socket failures to the same error counter.
	sends      *telemetry.Counter
	sendErrors *telemetry.Counter
}

// Instrument registers the node's consensus metrics on reg (nil
// disables). Durations are measured in simnet virtual time.
func (n *Node) Instrument(reg *telemetry.Registry) {
	votes := reg.CounterVec("trustnews_consensus_votes_total", "Valid votes counted, by type.", "type")
	n.tm = consensusMetrics{
		rounds:        reg.Counter("trustnews_consensus_rounds_total", "Consensus rounds entered across validators."),
		commits:       reg.Counter("trustnews_consensus_commits_total", "Blocks committed across validators."),
		votePrevote:   votes.With("prevote"),
		votePrecommit: votes.With("precommit"),
		propRejected:  reg.CounterVec("trustnews_consensus_proposals_rejected_total", "Proposals dropped before acceptance, by reason.", "reason"),
		voteRejected:  reg.CounterVec("trustnews_consensus_votes_rejected_total", "Votes dropped before counting, by reason.", "reason"),
		msgRejected:   reg.CounterVec("trustnews_consensus_messages_rejected_total", "Messages dropped as malformed or unverifiable, by reason.", "reason"),
		blockPulls:    reg.Counter("trustnews_consensus_block_pulls_total", "Commit certificates that arrived for a block body the node did not hold and had to pull."),
		equivocations: reg.Counter("trustnews_consensus_equivocations_total", "Conflicting votes detected from one validator."),
		roundSec:      reg.Histogram("trustnews_consensus_round_seconds", "Virtual-time duration of each consensus round.", nil),
		heightSec:     reg.Histogram("trustnews_consensus_height_seconds", "Virtual time from height start to commit.", nil),
	}
	stepSec := reg.HistogramVec("trustnews_consensus_step_seconds", "Virtual time spent in one step of one consensus round, and applying the decided block.", nil, "step")
	n.tm.applySec = stepSec.With("apply")
	for st := StepPropose; st <= StepPrecommit; st++ {
		n.tm.stepSec[st] = stepSec.With(st.String())
	}
	tm := transport.NewMetrics(reg)
	n.tm.sends = tm.Sends
	n.tm.sendErrors = tm.SendErrors
}

// KindSyncRequest asks a peer for the committed blocks from one height on.
const KindSyncRequest = "consensus.syncreq"

// KindSyncBlocks answers a sync request: a run of committed blocks read
// from the responder's chain, authenticated by the retained certificate
// of the block at the top of the run.
const KindSyncBlocks = "consensus.syncblocks"

// SyncRequest is the payload of KindSyncRequest.
type SyncRequest struct {
	Height uint64
}

// SyncResponse is the payload of KindSyncBlocks. Blocks covers heights
// [From, Cert.Height]; Cert certifies the last of them. The receiver
// verifies the certificate, that the last block hashes to the certified
// id and that the run links back from it by parent hash before applying
// anything, so the whole run is as trustworthy as the certificate itself.
type SyncResponse struct {
	From   uint64
	Blocks []*ledger.Block
	Cert   *Commit
}

// maxFutureBuffer bounds the future-message queue per node.
const maxFutureBuffer = 1 << 14

// DefaultCertWindow is the number of recent heights whose commit
// certificates a node keeps in memory for block sync.
const DefaultCertWindow = 128

// maxSyncBatch bounds the blocks served in one sync response.
const maxSyncBatch = 512

// NewNode creates a consensus node for the validator identified by kp.
func NewNode(id transport.NodeID, kp *keys.KeyPair, set *ValidatorSet, net transport.Network, app App, tmo Timeouts) *Node {
	return &Node{
		id:          id,
		kp:          kp,
		set:         set,
		net:         net,
		app:         app,
		tmo:         tmo,
		lockedRound: -1,
		validRound:  -1,
		proposals:   make(map[uint64]map[int]*Proposal),
		prevotes:    make(map[uint64]map[int]*voteSet),
		precommit:   make(map[uint64]map[int]*voteSet),
		blocks:      make(map[ledger.BlockID]*ledger.Block),
		certs:       make(map[uint64]*Commit),
	}
}

// Bind registers the node's message handler on the network.
func (n *Node) Bind() error {
	return n.net.AddNode(n.id, n.Handle)
}

// Metrics returns a copy of the node's counters.
func (n *Node) Metrics() Metrics { return n.metrics }

// Height returns the next height to be decided.
func (n *Node) Height() uint64 { return n.height }

// Stop makes the node ignore all further events (simulates a crash).
func (n *Node) Stop() { n.stopped = true }

// Stopped reports whether the node has stopped (crashed via Stop, or
// halted itself after an application-level commit failure).
func (n *Node) Stopped() bool { return n.stopped }

// SetCertWindow bounds the in-memory commit-certificate retention to the
// given number of recent heights (0 restores DefaultCertWindow). Call
// before Start.
func (n *Node) SetCertWindow(w int) { n.certWindow = w }

// CertCount returns the number of commit certificates held in memory.
func (n *Node) CertCount() int { return len(n.certs) }

// Start enters the first height/round.
func (n *Node) Start() {
	n.metrics.lastHeightAt = n.net.Now()
	n.startRound(0)
}

// StartAt enters consensus at the given height — the restart path for a
// node whose chain was recovered from its checkpoint and WAL. Heights
// below the start are assumed committed by the application; peers backfill
// anything decided while the node was down through the sync protocol.
func (n *Node) StartAt(height uint64) {
	n.height = height
	n.certFloor = height
	n.metrics.lastHeightAt = n.net.Now()
	n.startRound(0)
}

func (n *Node) startRound(round int) {
	n.paused = false
	now := n.net.Now()
	if n.roundStarted {
		n.tm.roundSec.Observe((now - n.roundStartAt).Seconds())
	}
	n.roundStartAt = now
	n.roundStarted = true
	n.tm.rounds.Inc()
	n.round = round
	n.enterStep(StepPropose)
	n.metrics.Rounds++
	proposer := n.set.Proposer(n.height, round)
	if proposer.Addr == n.kp.Address() {
		block := n.valid
		pol := n.validRound
		if block == nil {
			b, err := n.app.ProposeBlock(n.height)
			if err != nil || b == nil {
				// Nothing to propose: let the round time out so liveness
				// is preserved by round escalation.
				n.scheduleProposeTimeout(round)
				return
			}
			block = b
			pol = -1
		}
		p := &Proposal{Height: n.height, Round: round, POLRound: pol, Block: block, Proposer: n.kp.Address()}
		if pol >= 0 {
			// Attach the proof-of-lock prevotes so receivers that missed
			// them can verify the POL from the proposal alone.
			p.POLVotes = n.prevoteSet(n.height, pol).votesFor(block.ID())
		}
		SignProposal(p, n.kp)
		n.broadcast(KindProposal, p)
		n.onProposal(p) // deliver to self
		return
	}
	n.scheduleProposeTimeout(round)
	// Messages for this round may already have arrived while we were in a
	// previous round; act on them now.
	n.recheckQuorums()
}

// enterStep moves the node to step s and charges the time since the
// previous transition to the step it leaves, so a height's step series add
// up to the time from entering its first round to the end of its apply.
func (n *Node) enterStep(s Step) {
	now := n.net.Now()
	n.leaveStep(now)
	n.step, n.stepAt, n.stepOpen = s, now, true
}

// leaveStep closes the open step, if any, at virtual time now.
func (n *Node) leaveStep(now time.Duration) {
	if n.stepOpen {
		n.tm.stepSec[n.step].Observe((now - n.stepAt).Seconds())
		n.stepOpen = false
	}
}

func (n *Node) scheduleProposeTimeout(round int) {
	h := n.height
	n.net.After(n.id, n.tmo.Propose+time.Duration(round)*n.tmo.Delta, func() {
		if n.stopped || n.height != h || n.round != round || n.step != StepPropose {
			return
		}
		n.signVote(VotePrevote, ledger.BlockID{}) // prevote nil
		n.enterStep(StepPrevote)
		n.schedulePrevoteTimeout(round)
	})
}

func (n *Node) schedulePrevoteTimeout(round int) {
	h := n.height
	n.net.After(n.id, n.tmo.Prevote+time.Duration(round)*n.tmo.Delta, func() {
		if n.stopped || n.height != h || n.round != round || n.step != StepPrevote {
			return
		}
		n.signVote(VotePrecommit, ledger.BlockID{})
		n.enterStep(StepPrecommit)
		n.schedulePrecommitTimeout(round)
	})
}

func (n *Node) schedulePrecommitTimeout(round int) {
	h := n.height
	n.net.After(n.id, n.tmo.Precommit+time.Duration(round)*n.tmo.Delta, func() {
		if n.stopped || n.height != h || n.round != round {
			return
		}
		n.startRound(round + 1)
	})
}

// send routes one outbound message through the transport, surfacing local
// failures (unknown peer, backpressure, closed transport) in the node
// metrics and the trustnews_transport_* series instead of discarding them.
// In-flight losses still surface as timeouts, as on any real network.
func (n *Node) send(to transport.NodeID, kind string, payload any) {
	n.tm.sends.Inc()
	if err := n.net.Send(n.id, to, kind, payload); err != nil {
		n.metrics.SendErrors++
		n.tm.sendErrors.Inc()
	}
}

func (n *Node) broadcast(kind string, payload any) {
	for _, v := range n.set.Members() {
		if v.ID == n.id {
			continue
		}
		n.send(v.ID, kind, payload)
	}
}

func (n *Node) signVote(t VoteType, id ledger.BlockID) {
	v := Vote{Type: t, Height: n.height, Round: n.round, BlockID: id, Voter: n.kp.Address()}
	SignVote(&v, n.kp)
	n.broadcast(KindVote, v)
	n.onVote(v) // count own vote
}

// messageHeight extracts the consensus height of a message, or false for
// non-consensus (or corrupted) payloads.
func messageHeight(m transport.Message) (uint64, bool) {
	switch p := m.Payload.(type) {
	case *Proposal:
		if p == nil {
			return 0, false
		}
		return p.Height, true
	case Vote:
		return p.Height, true
	case *Commit:
		if p == nil {
			return 0, false
		}
		return p.Height, true
	default:
		return 0, false
	}
}

// Handle processes an incoming network message. Corrupted, duplicated and
// replayed traffic must never crash the node or double-count votes: every
// malformed or unverifiable message is dropped and accounted for in the
// rejection counters.
func (n *Node) Handle(m transport.Message) {
	if n.stopped {
		return
	}
	if h, ok := messageHeight(m); ok && h > n.height {
		if len(n.future) < maxFutureBuffer {
			n.future = append(n.future, m)
		}
		// We are behind: ask the sender to backfill our current height.
		// The guard keeps it to one request per height.
		if n.syncRequested <= n.height && m.From != n.id {
			n.syncRequested = n.height + 1
			n.send(m.From, KindSyncRequest, SyncRequest{Height: n.height})
		}
		return
	}
	switch m.Kind {
	case KindSyncRequest:
		req, ok := m.Payload.(SyncRequest)
		if !ok {
			n.tm.msgRejected.With("malformed").Inc()
			return
		}
		n.serveSync(m.From, req.Height)
	case KindSyncBlocks:
		resp, ok := m.Payload.(*SyncResponse)
		if !ok {
			n.tm.msgRejected.With("malformed").Inc()
			return
		}
		n.onSyncBlocks(resp)
	case KindProposal:
		p, ok := m.Payload.(*Proposal)
		if !ok || p == nil {
			n.tm.msgRejected.With("malformed").Inc()
			return
		}
		n.onProposal(p)
	case KindVote:
		v, ok := m.Payload.(Vote)
		if !ok {
			n.tm.msgRejected.With("malformed").Inc()
			return
		}
		n.onVote(v)
	case KindCommit:
		c, ok := m.Payload.(*Commit)
		if !ok || c == nil {
			n.tm.msgRejected.With("malformed").Inc()
			return
		}
		n.onCommit(m.From, c)
	}
}

// serveSync answers a sync request: the committed blocks from the
// requested height up to the lowest retained certificate at or above it,
// which authenticates the run. Near the tip that is one block and its own
// certificate; below the certificate window it is the whole stretch up to
// the oldest certificate still held. Bodies come from the chain app.
func (n *Node) serveSync(to transport.NodeID, from uint64) {
	// Scanning from the floor is bounded by the window size.
	top := from
	if top < n.certFloor {
		top = n.certFloor
	}
	for top < n.height && n.certs[top] == nil {
		top++
	}
	cert := n.certs[top]
	if cert == nil || top-from >= maxSyncBatch {
		return
	}
	blocks := make([]*ledger.Block, 0, top-from+1)
	for h := from; h <= top; h++ {
		b, err := n.app.BlockAt(h)
		if err != nil {
			return
		}
		blocks = append(blocks, b)
	}
	n.send(to, KindSyncBlocks, &SyncResponse{From: from, Blocks: blocks, Cert: cert})
}

// onSyncBlocks applies a sync answer. Everything is verified before the
// first block is committed: the certificate must carry a valid quorum,
// the last block must hash to the certified id, and the run must link
// back from it contiguously. A response that fails any check is dropped
// (and counted), never partially applied.
func (n *Node) onSyncBlocks(resp *SyncResponse) {
	if resp.Cert == nil || len(resp.Blocks) == 0 {
		n.tm.msgRejected.With("malformed").Inc()
		return
	}
	if resp.From != n.height {
		n.tm.msgRejected.With("stale_sync").Inc()
		return
	}
	last := len(resp.Blocks) - 1
	if resp.Cert.Height != resp.From+uint64(last) {
		n.tm.msgRejected.With("bad_sync_run").Inc()
		return
	}
	if err := VerifyCommit(resp.Cert, n.set); err != nil {
		n.tm.msgRejected.With("bad_certificate").Inc()
		return
	}
	want := resp.Cert.BlockID
	for i := last; i >= 0; i-- {
		b := resp.Blocks[i]
		if b == nil || b.Header.Height != resp.From+uint64(i) || b.ID() != want {
			n.tm.msgRejected.With("bad_sync_run").Inc()
			return
		}
		want = b.Header.Prev
	}
	for _, b := range resp.Blocks[:last] {
		// The run was certified, so a local apply failure means our chain
		// diverged — apply halts the node rather than fork.
		if !n.apply(b, nil) {
			return
		}
		delete(n.proposals, n.height)
		delete(n.prevotes, n.height)
		delete(n.precommit, n.height)
		n.height++
	}
	// The certified block ends the run the way any commit does: rounds
	// restart and buffered future messages replay.
	if n.apply(resp.Blocks[last], resp.Cert) {
		n.advanceHeight()
	}
}

func (n *Node) onProposal(p *Proposal) {
	if p.Block == nil {
		n.tm.propRejected.With("malformed").Inc()
		return
	}
	if p.Height != n.height {
		n.tm.propRejected.With("stale_height").Inc()
		return
	}
	if VerifyProposal(p, n.set) != nil {
		n.tm.propRejected.With("bad_signature").Inc()
		return
	}
	if n.set.Proposer(p.Height, p.Round).Addr != p.Proposer {
		n.tm.propRejected.With("wrong_proposer").Inc()
		return // not the legitimate proposer for that round
	}
	rounds, ok := n.proposals[p.Height]
	if !ok {
		rounds = make(map[int]*Proposal)
		n.proposals[p.Height] = rounds
	}
	if _, dup := rounds[p.Round]; dup {
		n.tm.propRejected.With("duplicate").Inc()
		return
	}
	if len(p.POLVotes) > n.set.Len() {
		n.tm.propRejected.With("malformed").Inc()
		return
	}
	rounds[p.Round] = p
	n.blocks[p.Block.ID()] = p.Block
	if c := n.awaited; c != nil && c.BlockID == p.Block.ID() {
		// The certificate overtook this proposal on another link.
		if n.apply(p.Block, c) {
			n.advanceHeight()
		}
		return
	}
	// Count the attached proof-of-lock prevotes; each is verified like any
	// other vote (duplicates of prevotes we already hold are rejected
	// harmlessly). A vote may commit the height mid-loop, so re-check.
	for i := range p.POLVotes {
		if n.height != p.Height || n.stopped {
			return
		}
		n.onVote(p.POLVotes[i])
	}
	if n.height != p.Height || n.stopped {
		return
	}
	n.tryPrevote()
	n.recheckQuorums()
}

// tryPrevote runs the Tendermint prevote rules for the current round if a
// proposal is available and we are still in the propose step.
func (n *Node) tryPrevote() {
	if n.step != StepPropose {
		return
	}
	p := n.proposalAt(n.height, n.round)
	if p == nil {
		return
	}
	id := p.Block.ID()
	appOK := n.app.ValidateBlock(p.Block) == nil

	prevoteID := ledger.BlockID{} // nil unless rules allow
	switch {
	case p.POLRound == -1:
		// Fresh proposal: prevote it if valid and we are not locked on a
		// different value.
		if appOK && (n.lockedRound == -1 || (n.locked != nil && n.locked.ID() == id)) {
			prevoteID = id
		}
	case p.POLRound >= 0 && p.POLRound < n.round:
		// Re-proposal with a proof-of-lock: need 2/3 prevotes at POLRound.
		vs := n.prevoteSet(n.height, p.POLRound)
		if qid, ok := vs.quorumFor(n.set.QuorumPower()); ok && qid == id {
			if appOK && (n.lockedRound <= p.POLRound || (n.locked != nil && n.locked.ID() == id)) {
				prevoteID = id
			}
		} else {
			return // wait for the POL prevotes to arrive
		}
	default:
		return
	}
	n.enterStep(StepPrevote)
	n.signVote(VotePrevote, prevoteID)
	n.schedulePrevoteTimeout(n.round)
}

func (n *Node) proposalAt(h uint64, r int) *Proposal {
	if rounds, ok := n.proposals[h]; ok {
		return rounds[r]
	}
	return nil
}

func (n *Node) prevoteSet(h uint64, r int) *voteSet {
	rounds, ok := n.prevotes[h]
	if !ok {
		rounds = make(map[int]*voteSet)
		n.prevotes[h] = rounds
	}
	vs, ok := rounds[r]
	if !ok {
		vs = newVoteSet()
		rounds[r] = vs
	}
	return vs
}

func (n *Node) precommitSet(h uint64, r int) *voteSet {
	rounds, ok := n.precommit[h]
	if !ok {
		rounds = make(map[int]*voteSet)
		n.precommit[h] = rounds
	}
	vs, ok := rounds[r]
	if !ok {
		vs = newVoteSet()
		rounds[r] = vs
	}
	return vs
}

func (n *Node) onVote(v Vote) {
	if v.Height != n.height {
		n.tm.voteRejected.With("stale_height").Inc()
		return
	}
	if v.Type != VotePrevote && v.Type != VotePrecommit {
		n.tm.voteRejected.With("malformed").Inc()
		return
	}
	if VerifyVote(&v, n.set) != nil {
		n.tm.voteRejected.With("bad_signature").Inc()
		return
	}
	val, _ := n.set.ByAddr(v.Voter)
	var vs *voteSet
	if v.Type == VotePrevote {
		vs = n.prevoteSet(v.Height, v.Round)
	} else {
		vs = n.precommitSet(v.Height, v.Round)
	}
	if err := vs.add(v, val.Power); err != nil {
		if errors.Is(err, ErrDuplicateVote) {
			// Replayed or duplicated traffic: the tally is untouched, so a
			// lossy-duplicating network can never double-count power.
			n.tm.voteRejected.With("duplicate").Inc()
			return
		}
		n.metrics.Equivocations++
		n.tm.equivocations.Inc()
		n.tm.voteRejected.With("equivocation").Inc()
		return
	}
	if v.Type == VotePrevote {
		n.tm.votePrevote.Inc()
	} else {
		n.tm.votePrecommit.Inc()
	}
	n.recheckQuorums()
}

// roundSkipTarget returns the lowest round above the current one in
// which validators holding more than 1/3 of total power have voted.
// At least one of them is honest, so that round is live and this node
// should catch up to it (the Tendermint round-skip rule). Without it,
// faulty links can drift validators into disjoint rounds whose timeout
// schedules never re-align — a liveness stall the chaos harness hits
// under corruption.
func (n *Node) roundSkipTarget() (int, bool) {
	skip := n.set.TotalPower()/3 + 1
	later := make(map[int]struct{})
	for r := range n.prevotes[n.height] {
		if r > n.round {
			later[r] = struct{}{}
		}
	}
	for r := range n.precommit[n.height] {
		if r > n.round {
			later[r] = struct{}{}
		}
	}
	if len(later) == 0 {
		return 0, false
	}
	rounds := make([]int, 0, len(later))
	for r := range later {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		voters := make(map[keys.Address]bool)
		if rs, ok := n.prevotes[n.height]; ok && rs[r] != nil {
			for addr := range rs[r].votes {
				voters[addr] = true
			}
		}
		if rs, ok := n.precommit[n.height]; ok && rs[r] != nil {
			for addr := range rs[r].votes {
				voters[addr] = true
			}
		}
		var power int64
		for addr := range voters {
			if val, ok := n.set.ByAddr(addr); ok {
				power += val.Power
			}
		}
		if power >= skip {
			return r, true
		}
	}
	return 0, false
}

// recheckQuorums applies the quorum-driven transitions for the current
// height. It is called after every proposal or vote arrival.
func (n *Node) recheckQuorums() {
	quorum := n.set.QuorumPower()

	// Catch up to a later round that provably has honest participation.
	if r, ok := n.roundSkipTarget(); ok {
		n.startRound(r)
		return
	}

	// A proposal that was waiting for its proof-of-lock prevotes may become
	// actionable once those prevotes arrive.
	n.tryPrevote()

	// A prevote quorum in the current round while in prevote step.
	if n.step == StepPrevote {
		vs := n.prevoteSet(n.height, n.round)
		if id, ok := vs.quorumFor(quorum); ok {
			if id.IsZero() {
				n.enterStep(StepPrecommit)
				n.signVote(VotePrecommit, ledger.BlockID{})
				n.schedulePrecommitTimeout(n.round)
			} else if b := n.blocks[id]; b != nil {
				n.locked = b
				n.lockedRound = n.round
				n.valid = b
				n.validRound = n.round
				n.enterStep(StepPrecommit)
				n.signVote(VotePrecommit, id)
				n.schedulePrecommitTimeout(n.round)
			}
		}
	}

	// Track valid value even outside prevote step (e.g. precommit step).
	for r := 0; r <= n.round; r++ {
		vs := n.prevoteSet(n.height, r)
		if id, ok := vs.quorumFor(quorum); ok && !id.IsZero() {
			if b := n.blocks[id]; b != nil && r > n.validRound {
				n.valid = b
				n.validRound = r
			}
		}
	}

	// A precommit quorum for a block in any round commits it.
	for r := 0; r <= n.round; r++ {
		vs := n.precommitSet(n.height, r)
		if id, ok := vs.quorumFor(quorum); ok && !id.IsZero() {
			if b := n.blocks[id]; b != nil {
				n.commit(b, vs.votesFor(id))
				return
			}
		}
	}

	// A precommit quorum of nil (or mixed reaching 2/3) in the current
	// round lets the precommit timeout advance the round; nothing to do
	// eagerly here.
}

func (n *Node) commit(b *ledger.Block, quorum []Vote) {
	cert := &Commit{Height: n.height, BlockID: b.ID(), Quorum: quorum}
	if !n.apply(b, cert) {
		return
	}
	// Announce the decision: peers that hold the body commit from it,
	// the others pull it from us.
	n.broadcast(KindCommit, cert)
	n.advanceHeight()
}

// apply commits the decided block of the current height to the
// application and, given its certificate, retains that for block sync. It
// reports false when the application rejected the block: a programming
// error in the App (the block was decided by a quorum), so the node halts
// to avoid divergence rather than panicking the whole process.
func (n *Node) apply(b *ledger.Block, cert *Commit) bool {
	start := n.net.Now()
	n.leaveStep(start)
	err := n.app.CommitBlock(b)
	n.tm.applySec.Observe((n.net.Now() - start).Seconds())
	if err != nil {
		n.stopped = true
		return false
	}
	if cert != nil {
		n.certs[n.height] = cert
		n.pruneCerts()
	}
	n.metrics.Committed++
	now := n.net.Now()
	n.tm.commits.Inc()
	n.tm.heightSec.Observe((now - n.metrics.lastHeightAt).Seconds())
	n.metrics.CommitLatency += now - n.metrics.lastHeightAt
	n.metrics.lastHeightAt = now
	return true
}

// pruneCerts drops certificates that fell out of the sliding retention
// window; those heights are served under the oldest one still held.
func (n *Node) pruneCerts() {
	w := uint64(n.certWindow)
	if w == 0 {
		w = DefaultCertWindow
	}
	for n.certFloor+w <= n.height {
		delete(n.certs, n.certFloor)
		n.certFloor++
	}
}

func (n *Node) advanceHeight() {
	delete(n.proposals, n.height)
	delete(n.prevotes, n.height)
	delete(n.precommit, n.height)
	n.height++
	n.round = 0
	n.locked = nil
	n.lockedRound = -1
	n.valid = nil
	n.validRound = -1
	n.blocks = make(map[ledger.BlockID]*ledger.Block)
	n.awaited = nil
	if n.tmo.Commit > 0 {
		// Pace block production: rest for timeout_commit before entering
		// the next height. Messages for the new height that arrive during
		// the pause are still tallied (they can even commit it early, or
		// pull us into a later round via round skip — either clears the
		// pause); the timer only fires if the pause is still in effect.
		h := n.height
		n.paused = true
		n.net.After(n.id, n.tmo.Commit, func() {
			if n.stopped || n.height != h || !n.paused {
				return
			}
			n.startRound(0)
			n.replayFuture()
		})
		n.replayFuture()
		return
	}
	n.startRound(0)
	n.replayFuture()
}

// replayFuture re-dispatches buffered messages that are now current.
func (n *Node) replayFuture() {
	if len(n.future) == 0 {
		return
	}
	pending := n.future
	n.future = nil
	for _, m := range pending {
		if n.stopped {
			return
		}
		n.Handle(m)
	}
}

// onCommit handles a peer's commit announcement for the current height.
// The body normally arrived with the proposal; a node that missed it asks
// the announcer for it and commits when the sync answer lands. Proposal
// and announcement come from different peers over different links, so a
// node that was off the CPU for a moment can read the announcement first
// while the proposal sits unread on its own link: the pull waits for as
// long as the node waits for a proposal anyway (Timeouts.Propose), and the
// proposal, if it comes, commits the height without one (see onProposal).
func (n *Node) onCommit(from transport.NodeID, c *Commit) {
	if c.Height != n.height {
		n.tm.msgRejected.With("stale_commit").Inc()
		return
	}
	if err := VerifyCommit(c, n.set); err != nil {
		n.tm.msgRejected.With("bad_certificate").Inc()
		return
	}
	b := n.blocks[c.BlockID]
	if b == nil {
		if n.awaited == nil {
			n.awaited = c
		}
		h := n.height
		n.net.After(n.id, n.tmo.Propose, func() {
			if n.stopped || n.height != h {
				return
			}
			n.tm.blockPulls.Inc()
			n.send(from, KindSyncRequest, SyncRequest{Height: h})
		})
		return
	}
	if n.apply(b, c) {
		n.advanceHeight()
	}
}

// String describes the node's position for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("%s@h%d/r%d/%s", n.id, n.height, n.round, n.step)
}
