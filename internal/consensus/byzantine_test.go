package consensus

import (
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/transport"
)

// Byzantine behaviours used in fault-injection tests. The paper's threat
// model includes adversaries who profit from corrupting the ranking ledger
// (fake-news producers); consensus must hold with f < n/3 such validators.

// EquivocatorNode votes for two different blocks in every round: it echoes
// whatever proposal it sees with a prevote and simultaneously prevotes an
// arbitrary conflicting id, attempting to split honest nodes.
type EquivocatorNode struct {
	id  transport.NodeID
	kp  *keys.KeyPair
	set *ValidatorSet
	net transport.Network
}

// NewEquivocator creates the double-voting validator.
func NewEquivocator(id transport.NodeID, kp *keys.KeyPair, set *ValidatorSet, net transport.Network) *EquivocatorNode {
	return &EquivocatorNode{id: id, kp: kp, set: set, net: net}
}

// Bind registers the equivocator's handler.
func (e *EquivocatorNode) Bind() error {
	return e.net.AddNode(e.id, e.Handle)
}

// Handle reacts to proposals by emitting conflicting prevotes and
// precommits to different peers.
func (e *EquivocatorNode) Handle(m transport.Message) {
	p, ok := m.Payload.(*Proposal)
	if !ok {
		return
	}
	realID := p.Block.ID()
	var fakeID ledger.BlockID
	fakeID[0] = 0xbd // arbitrary conflicting id
	members := e.set.Members()
	for i, v := range members {
		if v.ID == e.id {
			continue
		}
		ids := []ledger.BlockID{realID}
		if i%2 == 0 {
			// Half the peers receive both conflicting votes, which is the
			// strongest (and detectable) form of equivocation.
			ids = append(ids, fakeID)
		}
		for _, id := range ids {
			pre := Vote{Type: VotePrevote, Height: p.Height, Round: p.Round, BlockID: id, Voter: e.kp.Address()}
			SignVote(&pre, e.kp)
			_ = e.net.Send(e.id, v.ID, KindVote, pre)
			pc := Vote{Type: VotePrecommit, Height: p.Height, Round: p.Round, BlockID: id, Voter: e.kp.Address()}
			SignVote(&pc, e.kp)
			_ = e.net.Send(e.id, v.ID, KindVote, pc)
		}
	}
}

// DelayedNode wraps an honest node but defers every message by a fixed
// extra delay, modelling a slow validator.
type DelayedNode struct {
	Inner *Node
	Delay time.Duration
	net   transport.Network
	id    transport.NodeID
}

// NewDelayedNode wraps inner with the given processing delay.
func NewDelayedNode(inner *Node, net transport.Network, id transport.NodeID, delay time.Duration) *DelayedNode {
	return &DelayedNode{Inner: inner, Delay: delay, net: net, id: id}
}

// Bind registers the delaying handler.
func (d *DelayedNode) Bind() error {
	return d.net.AddNode(d.id, func(m transport.Message) {
		d.net.After(d.id, d.Delay, func() { d.Inner.Handle(m) })
	})
}
