package consensus

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Cluster wires N validators, each with its own chain and mempool, over one
// simulated network. It is the harness for the consensus tests.
type Cluster struct {
	Net   *simnet.Network
	Set   *ValidatorSet
	Nodes []*Node
	Keys  []*keys.KeyPair
	Apps  []*ChainApp
}

// NewCluster builds a BFT cluster of n validators with the given timeouts.
func NewCluster(n int, seed int64, tmo Timeouts) (*Cluster, error) {
	net := simnet.New(seed)
	kps := make([]*keys.KeyPair, n)
	vals := make([]Validator, n)
	for i := 0; i < n; i++ {
		kps[i] = keys.FromSeed([]byte("validator-" + strconv.Itoa(i)))
		vals[i] = Validator{
			ID:    simnet.NodeID("v" + strconv.Itoa(i)),
			Addr:  kps[i].Address(),
			Pub:   kps[i].Public(),
			Power: 1,
		}
	}
	set, err := NewValidatorSet(vals)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Net: net, Set: set, Keys: kps}
	for i := 0; i < n; i++ {
		app := &ChainApp{
			Chain:      ledger.NewMemChain(),
			Proposer:   kps[i].Address(),
			AllowEmpty: true, // heartbeat blocks keep heights advancing
		}
		app.Pool = ledger.NewMempool(app.Chain, 1<<16)
		node := NewNode(vals[i].ID, kps[i], set, net, app, tmo)
		if err := node.Bind(); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
		c.Apps = append(c.Apps, app)
	}
	return c, nil
}

// Instrument registers every node's consensus metrics and every app's
// mempool metrics on reg (nil disables). The series aggregate across
// validators: one shared registry observes the whole cluster.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	for _, n := range c.Nodes {
		n.Instrument(reg)
	}
	for _, app := range c.Apps {
		app.Pool.Instrument(reg)
	}
}

// Start launches every node.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.Start()
	}
}

// SubmitAll adds a transaction to every node's mempool (as if relayed).
func (c *Cluster) SubmitAll(tx *ledger.Tx) error {
	for i, app := range c.Apps {
		if err := app.Pool.Add(tx); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// RunUntilHeight drives the network until every live node's chain reaches
// the target height or maxVirtual elapses. It returns the virtual time
// consumed.
func (c *Cluster) RunUntilHeight(target uint64, maxVirtual time.Duration) time.Duration {
	start := c.Net.Now()
	deadline := start + maxVirtual
	c.Net.RunWhile(func() bool {
		if c.Net.Now() >= deadline {
			return false
		}
		for i, app := range c.Apps {
			if c.Nodes[i].stopped {
				continue
			}
			if app.Chain.Height() < target {
				return true
			}
		}
		return false
	})
	return c.Net.Now() - start
}

// MinHeight returns the lowest chain height across live nodes.
func (c *Cluster) MinHeight() uint64 {
	min := ^uint64(0)
	for i, app := range c.Apps {
		if c.Nodes[i].stopped {
			continue
		}
		if h := app.Chain.Height(); h < min {
			min = h
		}
	}
	if min == ^uint64(0) {
		return 0
	}
	return min
}

// AgreeAt verifies that all live nodes that have block at height h agree on
// its id. It returns false on divergence (a safety violation).
func (c *Cluster) AgreeAt(h uint64) bool {
	var ref ledger.BlockID
	seen := false
	for i, app := range c.Apps {
		if c.Nodes[i].stopped {
			continue
		}
		b, err := app.Chain.BlockAt(h)
		if err != nil {
			continue
		}
		if !seen {
			ref = b.ID()
			seen = true
			continue
		}
		if b.ID() != ref {
			return false
		}
	}
	return true
}
