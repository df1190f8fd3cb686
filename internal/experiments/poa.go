package experiments

import (
	"time"

	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/transport"
)

// poaKind is the one message a proof-of-authority validator sends.
const poaKind = "poa.block"

// poaMsg is a signed block announcement.
type poaMsg struct {
	Height   uint64
	Block    *ledger.Block
	Proposer keys.Address
	Sig      []byte
}

// poaNode is the proof-of-authority baseline E10a contrasts with BFT: the
// round-robin leader signs and broadcasts a block; followers verify the
// leader signature and commit immediately. One network hop per block, no
// votes, and therefore no Byzantine fault tolerance.
type poaNode struct {
	id       transport.NodeID
	kp       *keys.KeyPair
	set      *consensus.ValidatorSet
	net      transport.Network
	app      consensus.App
	interval time.Duration

	height  uint64
	stopped bool
}

// bind registers the node's handler on the network.
func (n *poaNode) bind() error { return n.net.AddNode(n.id, n.handle) }

// start schedules the first production slot.
func (n *poaNode) start() { n.scheduleSlot() }

func (n *poaNode) scheduleSlot() {
	n.net.After(n.id, n.interval, func() {
		if n.stopped {
			return
		}
		n.produceIfLeader()
		n.scheduleSlot()
	})
}

func (n *poaNode) produceIfLeader() {
	leader := n.set.Proposer(n.height, 0)
	if leader.Addr != n.kp.Address() {
		return
	}
	b, err := n.app.ProposeBlock(n.height)
	if err != nil || b == nil {
		return
	}
	msg := &poaMsg{Height: n.height, Block: b, Proposer: n.kp.Address()}
	msg.Sig = n.kp.Sign(poaSignBytes(msg))
	for _, v := range n.set.Members() {
		if v.ID == n.id {
			continue
		}
		_ = n.net.Send(n.id, v.ID, poaKind, msg)
	}
	n.commit(b)
}

func poaSignBytes(m *poaMsg) []byte {
	id := m.Block.ID()
	out := make([]byte, 0, 8+len(id)+keys.AddressSize)
	for i := 7; i >= 0; i-- {
		out = append(out, byte(m.Height>>(8*i)))
	}
	out = append(out, id[:]...)
	out = append(out, m.Proposer[:]...)
	return out
}

// handle processes an incoming block announcement.
func (n *poaNode) handle(m transport.Message) {
	if n.stopped {
		return
	}
	msg, ok := m.Payload.(*poaMsg)
	if !ok || m.Kind != poaKind {
		return
	}
	if msg.Height != n.height {
		return
	}
	leader := n.set.Proposer(msg.Height, 0)
	if leader.Addr != msg.Proposer {
		return
	}
	val, ok := n.set.ByAddr(msg.Proposer)
	if !ok || keys.Verify(val.Pub, poaSignBytes(msg), msg.Sig) != nil {
		return
	}
	if n.app.ValidateBlock(msg.Block) != nil {
		return
	}
	n.commit(msg.Block)
}

func (n *poaNode) commit(b *ledger.Block) {
	if err := n.app.CommitBlock(b, nil); err != nil {
		n.stopped = true
		return
	}
	n.height++
}
