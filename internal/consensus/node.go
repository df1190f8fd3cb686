package consensus

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
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
	// CommitBlock applies a decided block and stores it with cert, the
	// certificate that decided it. It must not fail for a block that
	// passed ValidateBlock against the same state.
	CommitBlock(b *ledger.Block, cert *Commit) error
	// BlockAt returns the committed block at a height with its
	// certificate: block sync is served from the app, not from memory.
	BlockAt(height uint64) (*ledger.Block, *Commit, error)
	// HasWork reports whether ProposeBlock would now include at least one
	// transaction. A node with Timeouts.Idle set asks it after each commit
	// to decide whether to enter the next height at once or rest.
	HasWork() bool
}

// Timeouts configures the per-step timeouts. Each escalating round adds
// Delta to the base timeout, per the Tendermint algorithm.
type Timeouts struct {
	Propose   time.Duration
	Prevote   time.Duration
	Precommit time.Duration
	Delta     time.Duration
	// Idle bounds how long a validator with nothing to do rests between
	// committing a height and entering the next one. With Idle set, a node
	// enters the next height as soon as its mempool holds a transaction to
	// propose or that height's proposal has arrived, and is woken by
	// WorkArrived when a transaction lands during the rest; only an idle
	// cluster waits the whole Idle and then commits an empty heartbeat
	// block. A busy node also keeps a pace: a height that committed n
	// transactions is followed by the next no sooner than n×TxPace (at most
	// Idle) after it started, so a block batches what arrived during the
	// previous round, or during that pace if it is longer. Zero — the
	// default and every virtual-time test that does not set it — enters the
	// next height immediately, work or not.
	Idle time.Duration
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

	// syncRequested is one more than the height this node last asked a
	// peer to backfill (see requestSync); syncPeer sent the newest message
	// for a height above this node's, so it holds the node's height.
	syncRequested uint64
	syncPeer      transport.NodeID
	// awaited is a verified certificate for the current height whose body
	// has not arrived yet (see onCommit); nil otherwise.
	awaited *Commit

	metrics Metrics
	stopped bool
	// paused is set while the node rests between committing a height and
	// entering the next one (Timeouts.Idle); cleared by startRound.
	paused bool
	// idle is armed while a paused node has found no work: WorkArrived,
	// called from any goroutine, disarms it and posts one wake-up onto the
	// event loop. It is the only field touched off the event loop.
	idle atomic.Bool
	// startedAt is when the current height's first round began, and
	// paceUntil the earliest a busy node enters the height after the one
	// it last committed (see TxPace).
	startedAt time.Duration
	paceUntil time.Duration

	tm consensusMetrics
	// roundStartAt is the virtual time the current round began; valid
	// once roundStarted is set. It feeds the round-duration histogram.
	roundStartAt time.Duration
	roundStarted bool
	// stepAt is the virtual time the current step was entered; valid while
	// stepOpen. Between a height's apply and the next round's start the
	// node is in the wait step: waitAt is when it began, valid while
	// waiting.
	stepAt   time.Duration
	stepOpen bool
	waitAt   time.Duration
	waiting  bool
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
	// stepSec, applySec and waitSec split a height's time
	// (trustnews_consensus_step_seconds): the round steps, indexed by
	// Step, the apply of the decided block, and the wait between the
	// previous height's apply and the first round's start.
	stepSec  [StepPrecommit + 1]*telemetry.Histogram
	applySec *telemetry.Histogram
	waitSec  *telemetry.Histogram
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
	stepSec := reg.HistogramVec("trustnews_consensus_step_seconds", "Virtual time spent in one step of one consensus round, applying the decided block, and waiting to enter a height.", nil, "step")
	n.tm.applySec = stepSec.With("apply")
	n.tm.waitSec = stepSec.With("wait")
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
// from the responder's chain, each with the certificate that decided it.
const KindSyncBlocks = "consensus.syncblocks"

// SyncRequest is the payload of KindSyncRequest.
type SyncRequest struct {
	Height uint64
}

// SyncResponse is the payload of KindSyncBlocks: the blocks from height
// From on, and Certs[i] the certificate that decided Blocks[i]. The
// receiver applies them in order, each once its own certificate checks.
type SyncResponse struct {
	From   uint64
	Blocks []*ledger.Block
	Certs  []*Commit
}

// maxFutureBuffer bounds the future-message queue per node.
const maxFutureBuffer = 1 << 14

// syncFrameHeadroom bounds what a sync answer's frame holds besides its
// blocks and certificates: version, kind, two node ids, From and count.
const syncFrameHeadroom = 1 << 10

// TxPace is how long, per transaction committed, a busy validator with
// Timeouts.Idle set waits from the start of a height to the start of the
// next. Below 1/TxPace (1 250 tx/s) of load the rounds themselves are
// longer and a block holds what arrived during the previous one; above it
// blocks grow until each waits the whole Idle. Closed-loop clients that
// keep a fixed number of transactions in flight therefore commit at
// 1/TxPace whatever the speed of the host, instead of at the rate that
// per-height work on a busy CPU allows. The value is the shortest pace at
// which a four-validator flood on a 2-vCPU host stays timer-bound: its
// commit rate spreads under 2 % from run to run and its CPU per committed
// transaction is no higher than at a longer pace (DESIGN.md, "A busy
// cluster keeps a pace").
const TxPace = 800 * time.Microsecond

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

// Start enters the first height/round.
func (n *Node) Start() {
	n.StartAt(0)
}

// StartAt enters consensus at the given height — the restart path for a
// node whose chain was recovered from its checkpoint and WAL. Heights
// below the start are assumed committed by the application; peers backfill
// anything decided while the node was down through the sync protocol.
func (n *Node) StartAt(height uint64) {
	n.height = height
	n.metrics.lastHeightAt = n.net.Now()
	n.waitAt, n.waiting = n.metrics.lastHeightAt, true
	n.startRound(0)
}

func (n *Node) startRound(round int) {
	if n.paused {
		n.paused = false
		n.idle.Store(false)
	}
	now := n.net.Now()
	if n.waiting {
		n.startedAt = now // the height's first round
	}
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
		n.acceptProposal(p) // deliver to self: signed here, not checked
		return
	}
	n.scheduleProposeTimeout(round)
	// Messages for this round may already have arrived while we were in a
	// previous round; act on them now.
	n.recheckQuorums()
}

// enterStep moves the node to step s and charges the time since the
// previous transition to the step it leaves (or to the wait, if it enters
// the height's first round), so a height's step series add up to its
// trustnews_consensus_height_seconds: from the previous height's apply to
// the end of its own.
func (n *Node) enterStep(s Step) {
	now := n.net.Now()
	n.leaveStep(now)
	n.step, n.stepAt, n.stepOpen = s, now, true
}

// leaveStep closes the open step or the wait, if any, at virtual time now.
func (n *Node) leaveStep(now time.Duration) {
	if n.stepOpen {
		n.tm.stepSec[n.step].Observe((now - n.stepAt).Seconds())
		n.stepOpen = false
	}
	if n.waiting {
		n.tm.waitSec.Observe((now - n.waitAt).Seconds())
		n.waiting = false
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
	n.countVote(v) // count own vote: signed here, not checked
}

// checkSignature, when set, observes every vote or proposal signature a
// node verifies: the verifier and the address that claims to have signed.
// Tests use it to show that a node never checks its own signatures.
var checkSignature func(verifier *Node, signer keys.Address)

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
		if m.From != n.id {
			n.syncPeer = m.From
			if n.syncRequested <= n.height {
				n.requestSync()
			}
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
		if !ok || resp == nil {
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

// requestSync asks syncPeer for the blocks from the current height on,
// and again after Timeouts.Propose (onCommit's wait for a missing body)
// while the node is still at that height: a lost request or answer would
// otherwise leave it behind for good.
func (n *Node) requestSync() {
	h := n.height
	n.syncRequested = h + 1
	n.send(n.syncPeer, KindSyncRequest, SyncRequest{Height: h})
	n.net.After(n.id, n.tmo.Propose, func() {
		if !n.stopped && n.height == h {
			n.requestSync()
		}
	})
}

// serveSync answers a sync request with the committed blocks from the
// requested height up, each with its certificate, read from the app. The
// answer ends at this node's height, at a block stored without a
// certificate, or before a block that would take its encoding past
// transport.MaxFrame; it always carries at least one block.
func (n *Node) serveSync(to transport.NodeID, from uint64) {
	resp := &SyncResponse{From: from}
	size := syncFrameHeadroom
	for h := from; h < n.height; h++ {
		b, cert, err := n.app.BlockAt(h)
		if err != nil {
			break
		}
		size += 4 + len(b.Encode()) + len(EncodeCommit(cert))
		if size > transport.MaxFrame && len(resp.Blocks) > 0 {
			break
		}
		resp.Blocks = append(resp.Blocks, b)
		resp.Certs = append(resp.Certs, cert)
	}
	if len(resp.Blocks) > 0 {
		n.send(to, KindSyncBlocks, resp)
	}
}

// onSyncBlocks applies a sync answer block by block, each once its own
// certificate carries a valid quorum for its height and id (the app checks
// the parent link). The first block that fails is counted and ends the
// answer; the blocks before it stay applied.
func (n *Node) onSyncBlocks(resp *SyncResponse) {
	if len(resp.Blocks) == 0 || len(resp.Certs) != len(resp.Blocks) {
		n.tm.msgRejected.With("malformed").Inc()
		return
	}
	if resp.From != n.height {
		n.tm.msgRejected.With("stale_sync").Inc()
		return
	}
	applied := false
	for i, b := range resp.Blocks {
		cert, h := resp.Certs[i], resp.From+uint64(i)
		if b == nil || cert == nil || b.Header.Height != h || cert.Height != h || cert.BlockID != b.ID() {
			n.tm.msgRejected.With("bad_sync_run").Inc()
			break
		}
		if err := VerifyCommit(cert, n.set); err != nil {
			n.tm.msgRejected.With("bad_certificate").Inc()
			break
		}
		if applied {
			// Move past the block before this one without entering a round.
			delete(n.proposals, n.height)
			delete(n.prevotes, n.height)
			delete(n.precommit, n.height)
			n.height++
		}
		// The block is certified, so a local apply failure means our chain
		// diverged: apply halts the node rather than fork.
		if !n.apply(b, cert) {
			return
		}
		applied = true
	}
	// The last block applied ends the run the way any commit does: rounds
	// restart and buffered future messages replay.
	if applied {
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
	if checkSignature != nil {
		checkSignature(n, p.Proposer)
	}
	if VerifyProposal(p, n.set) != nil {
		n.tm.propRejected.With("bad_signature").Inc()
		return
	}
	n.acceptProposal(p)
}

// acceptProposal records a proposal for the current height whose
// signature is known good, and acts on it.
func (n *Node) acceptProposal(p *Proposal) {
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
	if n.paused {
		// The height's proposal is work: stop resting and act on it.
		n.resume()
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
	if checkSignature != nil {
		checkSignature(n, v.Voter)
	}
	if VerifyVote(&v, n.set) != nil {
		n.tm.voteRejected.With("bad_signature").Inc()
		return
	}
	n.countVote(v)
}

// countVote tallies a vote for the current height whose signature is
// known good.
func (n *Node) countVote(v Vote) {
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

// apply commits the decided block of the current height, with the
// certificate that decided it, to the application. It reports false when
// the application rejected the block: a programming error in the App (the
// block was decided by a quorum), so the node halts to avoid divergence
// rather than panicking the whole process.
func (n *Node) apply(b *ledger.Block, cert *Commit) bool {
	start := n.net.Now()
	n.leaveStep(start)
	err := n.app.CommitBlock(b, cert)
	n.tm.applySec.Observe((n.net.Now() - start).Seconds())
	if err != nil {
		n.stopped = true
		return false
	}
	n.metrics.Committed++
	now := n.net.Now()
	n.tm.commits.Inc()
	n.tm.heightSec.Observe((now - n.metrics.lastHeightAt).Seconds())
	n.metrics.CommitLatency += now - n.metrics.lastHeightAt
	n.metrics.lastHeightAt = now
	n.waitAt, n.waiting = now, true
	n.paceUntil = n.startedAt + min(n.tmo.Idle, time.Duration(len(b.Txs))*TxPace)
	return true
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
	if n.tmo.Idle == 0 {
		n.startRound(0)
		n.replayFuture()
		return
	}
	// Enter the next height once the pace allows if there is work;
	// otherwise rest for at most Timeouts.Idle. Messages for the new height
	// that arrive during the rest are still tallied: its proposal ends the
	// rest (see acceptProposal), and a vote can commit the height or pull
	// the node into a later round via round skip. A transaction ends it
	// through WorkArrived. The timers only fire if the rest is still in
	// effect.
	h := n.height
	n.paused = true
	n.replayFuture()
	if !n.paused || n.height != h || n.stopped {
		return
	}
	if n.hasWork() {
		n.resumePaced()
		return
	}
	n.resumeAfter(n.tmo.Idle)
}

// resume ends a rest: the node enters round 0 of its current height.
func (n *Node) resume() {
	n.startRound(0)
	n.replayFuture()
}

// resumePaced ends a rest that has work: at once if the pace has run out,
// else when it does.
func (n *Node) resumePaced() {
	d := n.paceUntil - n.net.Now()
	if d <= 0 {
		n.resume()
		return
	}
	n.idle.Store(false) // work is pending: no wake-up needed
	n.resumeAfter(d)
}

// resumeAfter ends the current rest after d, unless it has ended by then.
func (n *Node) resumeAfter(d time.Duration) {
	h := n.height
	n.net.After(n.id, d, func() {
		if n.stopped || n.height != h || !n.paused {
			return
		}
		n.resume()
	})
}

// hasWork arms the wake-up and then asks the app for work. Arming first
// means a transaction added after the app looked still finds the node
// armed, so WorkArrived cannot slip between the two.
func (n *Node) hasWork() bool {
	n.idle.Store(true)
	return n.app.HasWork()
}

// WorkArrived tells the node that its app may now have a transaction to
// propose. It may be called from any goroutine, once per transaction
// admitted: unless the node is resting with no work it costs one atomic
// load, and otherwise it posts one wake-up onto the node's event loop,
// which enters the next height if the app has work and rearms if not (a
// transaction behind a nonce gap is not work).
func (n *Node) WorkArrived() {
	if n.idle.CompareAndSwap(true, false) {
		n.net.After(n.id, 0, n.onWork)
	}
}

func (n *Node) onWork() {
	if n.stopped || !n.paused {
		return
	}
	if n.hasWork() {
		n.resumePaced()
	}
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
