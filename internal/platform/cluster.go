package platform

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/blobstore"
	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
)

// Cluster is a replicated deployment: N validators each run a full
// Platform (contracts, fact index, supply-chain graph) and agree on block
// order through BFT consensus over the simulated network. This is the
// paper's actual deployment model — "the responsibility of verifying the
// factual of the news should not be placed in the hands of a single or a
// limited number of commercial organizations" (§III) — whereas the
// standalone Platform is the single-node development mode.
//
// Each validator's contract state evolves deterministically from the
// agreed block sequence, so all replicas converge to the same state root;
// TestClusterReplicasConverge asserts exactly that.
type Cluster struct {
	Net      *simnet.Network
	Set      *consensus.ValidatorSet
	Nodes    []*consensus.Node
	Replicas []*Platform
}

// NewCluster builds n platform validators over one simulated network.
// Every replica is configured identically (same authority seed), so their
// contract engines accept the same transactions.
func NewCluster(n int, seed int64, cfg Config, tmo consensus.Timeouts) (*Cluster, error) {
	net := simnet.New(seed)
	kps := make([]*keys.KeyPair, n)
	vals := make([]consensus.Validator, n)
	for i := 0; i < n; i++ {
		kps[i] = keys.FromSeed([]byte("platform-validator-" + strconv.Itoa(i)))
		vals[i] = consensus.Validator{
			ID:    simnet.NodeID("p" + strconv.Itoa(i)),
			Addr:  kps[i].Address(),
			Pub:   kps[i].Public(),
			Power: 1,
		}
	}
	set, err := consensus.NewValidatorSet(vals)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Net: net, Set: set}
	for i := 0; i < n; i++ {
		replica, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("platform: replica %d: %w", i, err)
		}
		// The replica's own chain follows consensus: CommitBlock appends
		// to it and the platform executes + indexes the block.
		replica.replicated = true
		node := consensus.NewNode(vals[i].ID, kps[i], set, net, replica.consensusApp(kps[i].Address()), tmo)
		// One shared registry (cfg.Telemetry) observes the whole cluster:
		// replica series aggregate, consensus series span all validators.
		node.Instrument(cfg.Telemetry)
		if err := node.Bind(); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
		c.Replicas = append(c.Replicas, replica)
	}
	// Off-chain bodies are stored only where the publishing client put
	// them; replicas hydrating a committed CID fall back to their
	// siblings' stores (the in-process equivalent of the blob retrieval
	// protocol, which internal/blobstore exercises over the simnet). The
	// Has guard keeps a miss from bouncing between empty stores.
	for i := range c.Replicas {
		self := i
		c.Replicas[i].Blobs().SetFallback(func(cid blobstore.CID) ([]byte, bool) {
			for j, other := range c.Replicas {
				if j == self || !other.Blobs().Has(cid) {
					continue
				}
				if b, err := other.Blobs().Get(cid); err == nil {
					return b, true
				}
			}
			return nil, false
		})
	}
	return c, nil
}

// Start launches consensus on every validator.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.Start()
	}
}

// SubmitAll submits a signed transaction to every replica's mempool (as a
// client broadcast would).
func (c *Cluster) SubmitAll(tx *ledger.Tx) error {
	for i, r := range c.Replicas {
		if err := r.Submit(tx); err != nil {
			return fmt.Errorf("platform: replica %d submit: %w", i, err)
		}
	}
	return nil
}

// RunUntilHeight drives the network until every replica reaches the
// target chain height or maxVirtual elapses.
func (c *Cluster) RunUntilHeight(target uint64, maxVirtual time.Duration) {
	deadline := c.Net.Now() + maxVirtual
	c.Net.RunWhile(func() bool {
		if c.Net.Now() >= deadline {
			return false
		}
		for _, r := range c.Replicas {
			if r.Chain().Height() < target {
				return true
			}
		}
		return false
	})
}

// MinHeight returns the lowest replica chain height.
func (c *Cluster) MinHeight() uint64 {
	min := ^uint64(0)
	for _, r := range c.Replicas {
		if h := r.Chain().Height(); h < min {
			min = h
		}
	}
	if min == ^uint64(0) {
		return 0
	}
	return min
}

// StateRoots returns every replica's current contract state root.
func (c *Cluster) StateRoots() ([]string, error) {
	out := make([]string, len(c.Replicas))
	for i, r := range c.Replicas {
		root, err := r.Engine().StateRoot()
		if err != nil {
			return nil, err
		}
		out[i] = root.String()
	}
	return out, nil
}

// Converged reports whether all replicas share one state root.
func (c *Cluster) Converged() (bool, error) {
	roots, err := c.StateRoots()
	if err != nil {
		return false, err
	}
	for _, r := range roots[1:] {
		if r != roots[0] {
			return false, nil
		}
	}
	return true, nil
}

// SignAuthority builds an authority-signed transaction at the given nonce
// (all replicas share the authority key derived from cfg.AuthoritySeed).
// Use with SubmitAll to perform privileged operations — seeding facts,
// minting, resolving — on a replicated deployment.
func (c *Cluster) SignAuthority(nonce uint64, kind string, payload []byte) (*ledger.Tx, error) {
	return ledger.NewTx(c.Replicas[0].authority, nonce, kind, payload)
}
