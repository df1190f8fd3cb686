package platform

// This file is the one place a Platform becomes a consensus validator,
// over any transport.Network implementation: cmd/trustnewsd's TCP
// cluster mode (every validator a separate OS process) and the
// in-process cluster of internal/chaos (every validator on one
// simulated network) both go through AttachConsensus.

import (
	"fmt"
	"strconv"

	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/transport"
)

// ValidatorID returns the canonical node ID for validator index i
// ("p0", "p1", ...). Every deployment tool (daemon flags, e2e harness,
// the chaos cluster's directories) uses the same convention so that data
// directories, peer maps and validator sets line up by construction.
func ValidatorID(i int) transport.NodeID {
	return transport.NodeID("p" + strconv.Itoa(i))
}

// ValidatorKey derives validator i's well-known development key pair.
// Real deployments would provision keys externally; the reproduction
// uses deterministic seeds so any process can reconstruct the full
// validator set from its size alone.
func ValidatorKey(i int) *keys.KeyPair {
	return keys.FromSeed([]byte("platform-validator-" + strconv.Itoa(i)))
}

// ClusterValidators builds the canonical n-validator set (equal power,
// IDs p0..p{n-1}, deterministic development keys).
func ClusterValidators(n int) (*consensus.ValidatorSet, []*keys.KeyPair, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("platform: cluster needs validators, got %d", n)
	}
	kps := make([]*keys.KeyPair, n)
	vals := make([]consensus.Validator, n)
	for i := 0; i < n; i++ {
		kps[i] = ValidatorKey(i)
		vals[i] = consensus.Validator{
			ID:    ValidatorID(i),
			Addr:  kps[i].Address(),
			Pub:   kps[i].Public(),
			Power: 1,
		}
	}
	set, err := consensus.NewValidatorSet(vals)
	if err != nil {
		return nil, nil, err
	}
	return set, kps, nil
}

// AttachConsensus switches platform p into replicated mode and wires it
// as validator id of set over net. Standalone commits (Commit/CommitAll)
// are disabled from here on: blocks are decided by consensus and applied
// through its consensusApp. The returned node is neither registered on
// the network nor started: the caller routes id's traffic to node.Handle
// (Bind, or a handler of its own that dispatches to it) and then calls
// StartAt(p.Chain().Height()) from the transport's event loop once the
// process is ready to participate.
func AttachConsensus(p *Platform, id transport.NodeID, kp *keys.KeyPair, set *consensus.ValidatorSet, net transport.Network, tmo consensus.Timeouts) *consensus.Node {
	if tmo == (consensus.Timeouts{}) {
		tmo = consensus.DefaultTimeouts()
	}
	p.mu.Lock()
	p.replicated = true
	p.mu.Unlock()
	node := consensus.NewNode(id, kp, set, net, p.consensusApp(kp.Address()), tmo)
	node.Instrument(p.cfg.Telemetry)
	p.validator.Store(node)
	return node
}

// validatorApp is a platform validator's consensus.App: ChainApp proposes
// and validates blocks, and the platform commits a decided one — append,
// execute, index — so that its append is a stage of the commit, as on the
// standalone path.
type validatorApp struct {
	*consensus.ChainApp
	p *Platform
}

// CommitBlock implements consensus.App.
func (a validatorApp) CommitBlock(b *ledger.Block) error { return a.p.commitDecided(b) }

// consensusApp returns the consensus.App through which p validates, its
// blocks proposed by proposer and stamped by the platform clock as
// configured now (a fixed epoch by default, time.Now in the daemon).
func (p *Platform) consensusApp(proposer keys.Address) consensus.App {
	return validatorApp{
		ChainApp: &consensus.ChainApp{Chain: p.chain, Pool: p.pool, Proposer: proposer, AllowEmpty: true, Now: p.clock},
		p:        p,
	}
}

// SetOnSubmit installs a hook observing every transaction accepted into
// the local mempool via Submit. Cluster mode uses it to relay client
// transactions to peer validators so any node's proposer sees them.
func (p *Platform) SetOnSubmit(fn func(*ledger.Tx)) {
	if fn == nil {
		p.onSubmit.Store(nil)
		return
	}
	p.onSubmit.Store(&fn)
}

// SubmitRelayed enqueues a transaction received from a peer without
// re-triggering the relay hook (the origin already broadcast it to the
// full mesh, so forwarding again would only produce duplicate traffic).
func (p *Platform) SubmitRelayed(tx *ledger.Tx) error {
	if err := p.pool.Add(tx); err != nil {
		return err
	}
	p.workArrived()
	return nil
}
