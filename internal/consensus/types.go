// Package consensus implements a Tendermint-style BFT consensus protocol
// over any transport.Network: loopback TCP in the daemon, the simulated
// network in tests and experiments. The paper's platform "demands a high
// performance blockchain network" (§VII) with Byzantine participants
// (fake-news producers have an incentive to subvert ranking); experiment
// E10a measures its latency against a proof-of-authority baseline (kept
// with the experiment) as the validator count grows.
//
// The BFT state machine follows Buchman, Kwon & Milosevic, "The latest
// gossip on BFT consensus" (the Tendermint algorithm): propose / prevote /
// precommit steps per round, value locking, and proof-of-lock rounds. All
// votes and proposals are ed25519-signed and verified on receipt.
package consensus

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/transport"
)

// Message kinds on the wire.
const (
	KindProposal = "consensus.proposal"
	KindVote     = "consensus.vote"
	KindCommit   = "consensus.commit"
)

// Step is the phase within a consensus round.
type Step int

// Round steps.
const (
	StepPropose Step = iota + 1
	StepPrevote
	StepPrecommit
)

// String implements fmt.Stringer.
func (s Step) String() string {
	switch s {
	case StepPropose:
		return "propose"
	case StepPrevote:
		return "prevote"
	case StepPrecommit:
		return "precommit"
	default:
		return "unknown"
	}
}

// VoteType distinguishes the two voting phases.
type VoteType int

// Vote types.
const (
	VotePrevote VoteType = iota + 1
	VotePrecommit
)

// String implements fmt.Stringer.
func (v VoteType) String() string {
	if v == VotePrevote {
		return "prevote"
	}
	return "precommit"
}

// Errors returned by this package.
var (
	// ErrNotValidator indicates a message from an address outside the set.
	ErrNotValidator = errors.New("consensus: not a validator")
	// ErrBadVoteSig indicates a vote whose signature fails.
	ErrBadVoteSig = errors.New("consensus: bad vote signature")
	// ErrEquivocation indicates two conflicting signed votes from one
	// validator at the same height/round/type.
	ErrEquivocation = errors.New("consensus: equivocation detected")
	// ErrDuplicateVote indicates a vote identical to one already counted
	// (a replayed or duplicated message, not an equivocation).
	ErrDuplicateVote = errors.New("consensus: duplicate vote")
	// ErrEmptyValidatorSet indicates a set with no members.
	ErrEmptyValidatorSet = errors.New("consensus: empty validator set")
)

// Validator is one consensus participant.
type Validator struct {
	ID    transport.NodeID
	Addr  keys.Address
	Pub   []byte // ed25519 public key
	Power int64
}

// ValidatorSet is an ordered set of validators with power accounting.
type ValidatorSet struct {
	vals   []Validator
	byAddr map[keys.Address]int
	total  int64
}

// NewValidatorSet builds a set; order is canonicalized by node id so every
// node computes the same proposer rotation.
func NewValidatorSet(vals []Validator) (*ValidatorSet, error) {
	if len(vals) == 0 {
		return nil, ErrEmptyValidatorSet
	}
	cp := make([]Validator, len(vals))
	copy(cp, vals)
	sort.Slice(cp, func(i, j int) bool { return cp[i].ID < cp[j].ID })
	s := &ValidatorSet{vals: cp, byAddr: make(map[keys.Address]int, len(cp))}
	for i, v := range cp {
		if v.Power <= 0 {
			return nil, fmt.Errorf("consensus: validator %s power %d", v.ID, v.Power)
		}
		s.byAddr[v.Addr] = i
		s.total += v.Power
	}
	return s, nil
}

// Len returns the number of validators.
func (s *ValidatorSet) Len() int { return len(s.vals) }

// TotalPower returns the sum of voting power.
func (s *ValidatorSet) TotalPower() int64 { return s.total }

// QuorumPower returns the minimum power strictly exceeding 2/3 of total.
func (s *ValidatorSet) QuorumPower() int64 { return s.total*2/3 + 1 }

// ByAddr returns the validator with the given address.
func (s *ValidatorSet) ByAddr(a keys.Address) (Validator, bool) {
	i, ok := s.byAddr[a]
	if !ok {
		return Validator{}, false
	}
	return s.vals[i], true
}

// Members returns a copy of the validator list in canonical order.
func (s *ValidatorSet) Members() []Validator {
	out := make([]Validator, len(s.vals))
	copy(out, s.vals)
	return out
}

// Proposer returns the proposer for a height/round by weighted round-robin
// (uniform power degenerates to plain round-robin).
func (s *ValidatorSet) Proposer(height uint64, round int) Validator {
	// Deterministic index over the cumulative power wheel.
	seq := height*31 + uint64(round)
	target := int64(seq % uint64(s.total))
	var acc int64
	for _, v := range s.vals {
		acc += v.Power
		if target < acc {
			return v
		}
	}
	return s.vals[len(s.vals)-1]
}

// Proposal is a proposer's signed block proposal for (height, round).
// POLRound carries the proof-of-lock round (-1 when proposing fresh).
// POLVotes carries the prevote quorum proving the lock, so receivers
// that missed those prevotes (lossy or corrupting links) can still act
// on the re-proposal instead of waiting forever. Each vote is
// individually signed, so the field stays outside the proposal's own
// sign bytes.
type Proposal struct {
	Height   uint64
	Round    int
	POLRound int
	Block    *ledger.Block
	Proposer keys.Address
	Sig      []byte
	POLVotes []Vote
}

func proposalSignBytes(p *Proposal) []byte {
	w := ledger.Writer{Buf: make([]byte, 0, 3*8+len(ledger.BlockID{})+keys.AddressSize)}
	w.U64(p.Height)
	w.I64(int64(p.Round))
	w.I64(int64(p.POLRound))
	id := p.Block.ID()
	w.Raw(id[:])
	w.Raw(p.Proposer[:])
	return w.Buf
}

// SignProposal signs p with the proposer key.
func SignProposal(p *Proposal, kp *keys.KeyPair) {
	p.Sig = kp.Sign(proposalSignBytes(p))
}

// VerifyProposal checks the proposal signature against the validator set.
func VerifyProposal(p *Proposal, set *ValidatorSet) error {
	v, ok := set.ByAddr(p.Proposer)
	if !ok {
		return fmt.Errorf("%w: proposer %s", ErrNotValidator, p.Proposer.Short())
	}
	if err := keys.Verify(v.Pub, proposalSignBytes(p), p.Sig); err != nil {
		return fmt.Errorf("%w: proposal: %v", ErrBadVoteSig, err)
	}
	return nil
}

// Vote is a signed prevote or precommit. A zero BlockID is a nil-vote.
type Vote struct {
	Type    VoteType
	Height  uint64
	Round   int
	BlockID ledger.BlockID
	Voter   keys.Address
	Sig     []byte
}

// voteSignBytes is the vote's encoding up to its signature (codec.go).
func voteSignBytes(v *Vote) []byte {
	w := ledger.Writer{Buf: make([]byte, 0, voteFieldsLen)}
	writeVoteFields(&w, v)
	return w.Buf
}

// SignVote signs v with the voter key.
func SignVote(v *Vote, kp *keys.KeyPair) {
	v.Sig = kp.Sign(voteSignBytes(v))
}

// VoteSignBytes exposes the canonical signed bytes of a vote so external
// verifiers (the on-chain evidence contract, light clients) can check
// vote signatures without a validator-set oracle.
func VoteSignBytes(v *Vote) []byte { return voteSignBytes(v) }

// VerifyVote checks the vote signature against the validator set.
func VerifyVote(v *Vote, set *ValidatorSet) error {
	val, ok := set.ByAddr(v.Voter)
	if !ok {
		return fmt.Errorf("%w: voter %s", ErrNotValidator, v.Voter.Short())
	}
	if err := keys.Verify(val.Pub, voteSignBytes(v), v.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadVoteSig, err)
	}
	return nil
}

// Commit is a commit certificate: the id of the block decided at a height
// and a precommit quorum for that id. It carries no block body — whoever
// receives it either holds the body already (from the proposal) or pulls
// it with a SyncRequest and checks that it hashes to BlockID — so a node
// announces every commit at a few hundred bytes. The chain stores each
// block with its certificate (EncodeCommit), and block sync serves both.
type Commit struct {
	Height  uint64
	BlockID ledger.BlockID
	Quorum  []Vote
}

// VerifyCommit checks that the certificate carries a valid 2/3+ precommit
// quorum for its block id from distinct validators.
func VerifyCommit(c *Commit, set *ValidatorSet) error {
	if c.BlockID.IsZero() {
		return errors.New("consensus: commit cert for the nil block")
	}
	var power int64
	seen := make(map[keys.Address]bool, len(c.Quorum))
	for i := range c.Quorum {
		v := c.Quorum[i]
		if v.Type != VotePrecommit || v.Height != c.Height || v.BlockID != c.BlockID {
			return fmt.Errorf("consensus: commit cert vote %d does not match block", i)
		}
		if seen[v.Voter] {
			return fmt.Errorf("%w: duplicate voter in commit cert", ErrEquivocation)
		}
		if err := VerifyVote(&v, set); err != nil {
			return err
		}
		seen[v.Voter] = true
		val, _ := set.ByAddr(v.Voter)
		power += val.Power
	}
	if power < set.QuorumPower() {
		return fmt.Errorf("consensus: commit cert power %d < quorum %d", power, set.QuorumPower())
	}
	return nil
}

// voteSet tallies votes for one (height, round, type).
type voteSet struct {
	votes map[keys.Address]Vote
	power map[ledger.BlockID]int64
	total int64
}

func newVoteSet() *voteSet {
	return &voteSet{votes: make(map[keys.Address]Vote), power: make(map[ledger.BlockID]int64)}
}

// add records a vote. It returns ErrEquivocation if the voter already voted
// for a different block at this (height, round, type), and ErrDuplicateVote
// for an exact replay; in both cases the tally is unchanged, so duplicated
// or replayed network traffic can never double-count voting power.
func (vs *voteSet) add(v Vote, power int64) error {
	prev, ok := vs.votes[v.Voter]
	if ok {
		if prev.BlockID != v.BlockID {
			return fmt.Errorf("%w: %s voted %s then %s", ErrEquivocation, v.Voter.Short(), prev.BlockID.Short(), v.BlockID.Short())
		}
		return ErrDuplicateVote
	}
	vs.votes[v.Voter] = v
	vs.power[v.BlockID] += power
	vs.total += power
	return nil
}

// quorumFor returns the block id holding a quorum, if any. The bool result
// reports whether some id (possibly the zero/nil id) has quorum.
func (vs *voteSet) quorumFor(quorum int64) (ledger.BlockID, bool) {
	for id, p := range vs.power {
		if p >= quorum {
			return id, true
		}
	}
	return ledger.BlockID{}, false
}

// totalPower returns the power of all votes in the set.
func (vs *voteSet) totalPower() int64 { return vs.total }

// votesFor returns all recorded votes for a block id.
func (vs *voteSet) votesFor(id ledger.BlockID) []Vote {
	var out []Vote
	for _, v := range vs.votes {
		if v.BlockID == id {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].Voter[:], out[j].Voter[:]) < 0
	})
	return out
}
