package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blobstore"
	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/simnet"
)

// DurableClusterConfig configures a replicated deployment whose validators
// persist their chains to disk, so individual replicas can crash and
// recover mid-run.
type DurableClusterConfig struct {
	// Validators is the cluster size.
	Validators int
	// Seed seeds the simulated network (and thus all fault injection).
	Seed int64
	// Dir is the root data directory; replica i persists under Dir/p<i>.
	Dir string
	// Platform configures every replica identically. BlobDir is derived
	// per replica and must be left empty.
	Platform platform.Config
	// Timeouts configures consensus (zero means consensus defaults).
	Timeouts consensus.Timeouts
}

// DurableCluster is the in-process replicated deployment: N durable
// platforms, each made a validator by platform.AttachConsensus exactly as
// the daemon makes one, agreeing on one ledger over a seeded simulated
// network. It has a crash/restart lifecycle: Crash(i) kills a replica
// (closing its chain log and detaching it from the network) and
// Restart(i) reopens it from its checkpoint plus WAL tail, rejoining
// consensus at its recovered height. It is the system under test for the
// Harness and the paper's answer to "what happens when a verification
// node fails" — the platform must tolerate node churn without forking or
// losing committed news items.
type DurableCluster struct {
	Net *simnet.Network
	Set *consensus.ValidatorSet
	// Nodes and Replicas are indexed by validator; both are nil for a
	// crashed replica until Restart brings it back.
	Nodes    []*consensus.Node
	Replicas []*platform.Platform

	cfg     DurableClusterConfig
	keys    []*keys.KeyPair
	closers []func() error
	down    []bool
}

// NewDurableCluster builds (or reopens) a durable cluster. Replica data
// directories are created under cfg.Dir as needed, so a cluster can be
// rebuilt over the remains of a previous run to test cold recovery.
func NewDurableCluster(cfg DurableClusterConfig) (*DurableCluster, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: durable cluster needs a data directory")
	}
	if cfg.Platform.BlobDir != "" {
		return nil, fmt.Errorf("chaos: BlobDir is derived per replica; leave it empty")
	}
	set, kps, err := platform.ClusterValidators(cfg.Validators)
	if err != nil {
		return nil, err
	}
	n := cfg.Validators
	d := &DurableCluster{
		Net:      simnet.New(cfg.Seed),
		Set:      set,
		cfg:      cfg,
		keys:     kps,
		Nodes:    make([]*consensus.Node, n),
		Replicas: make([]*platform.Platform, n),
		closers:  make([]func() error, n),
		down:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		if err := d.boot(i, true); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

// boot opens replica i from its data directory and wires it into
// consensus. On first boot the node registers with the network; on a
// restart it replaces the dead node's handler and reattaches.
func (d *DurableCluster) boot(i int, first bool) error {
	id := platform.ValidatorID(i)
	dir := filepath.Join(d.cfg.Dir, string(id))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	replica, closeFn, err := platform.Open(dir, d.cfg.Platform)
	if err != nil {
		return fmt.Errorf("chaos: replica %d open: %w", i, err)
	}
	node := platform.AttachConsensus(replica, id, d.keys[i], d.Set, d.Net, d.cfg.Timeouts)
	if first {
		err = node.Bind()
	} else if err = d.Net.SetHandler(id, node.Handle); err == nil {
		d.Net.Reattach(id)
	}
	if err != nil {
		closeFn()
		return err
	}
	// Off-chain bodies hydrate from live siblings when the local blob
	// store (persisted under the replica dir) lacks a committed CID.
	self := i
	replica.Blobs().SetFallback(func(cid blobstore.CID) ([]byte, bool) {
		for j, other := range d.Replicas {
			if j == self || other == nil || !other.Blobs().Has(cid) {
				continue
			}
			if b, err := other.Blobs().Get(cid); err == nil {
				return b, true
			}
		}
		return nil, false
	})
	d.Nodes[i] = node
	d.Replicas[i] = replica
	d.closers[i] = closeFn
	d.down[i] = false
	return nil
}

// Start enters consensus on every replica at its recovered chain height
// (zero for a fresh cluster).
func (d *DurableCluster) Start() {
	for i, n := range d.Nodes {
		if n == nil {
			continue
		}
		n.StartAt(d.Replicas[i].Chain().Height())
	}
}

// Down reports whether replica i is currently crashed.
func (d *DurableCluster) Down(i int) bool { return d.down[i] }

// LiveCount returns the number of running replicas.
func (d *DurableCluster) LiveCount() int {
	live := 0
	for _, down := range d.down {
		if !down {
			live++
		}
	}
	return live
}

// Checkpoint writes replica i's checkpoint (a no-op error if crashed).
func (d *DurableCluster) Checkpoint(i int) error {
	if d.down[i] {
		return fmt.Errorf("chaos: replica %d is down", i)
	}
	return d.Replicas[i].WriteCheckpoint()
}

// Crash kills replica i: the consensus node stops, the network drops its
// traffic (in-flight included), and the chain log is closed. Anything not
// yet fsynced through the WAL or a checkpoint is lost, exactly like a
// process kill. The replica stays down until Restart.
func (d *DurableCluster) Crash(i int) error {
	if d.down[i] {
		return fmt.Errorf("chaos: replica %d already down", i)
	}
	d.Nodes[i].Stop()
	d.Net.Detach(platform.ValidatorID(i))
	err := d.closers[i]()
	d.Nodes[i] = nil
	d.Replicas[i] = nil
	d.closers[i] = nil
	d.down[i] = true
	return err
}

// Restart brings a crashed replica back: the platform reopens from its
// checkpoint plus WAL tail (or full replay), a fresh consensus node takes
// over the network address, and consensus resumes at the recovered
// height. Heights committed by the rest of the cluster while the replica
// was down are backfilled through the consensus sync protocol.
func (d *DurableCluster) Restart(i int) error {
	if !d.down[i] {
		return fmt.Errorf("chaos: replica %d is not down", i)
	}
	if err := d.boot(i, false); err != nil {
		return err
	}
	d.Nodes[i].StartAt(d.Replicas[i].Chain().Height())
	return nil
}

// Close releases every live replica's chain log (for test teardown).
func (d *DurableCluster) Close() {
	for i := range d.closers {
		if d.closers[i] != nil {
			_ = d.closers[i]()
			d.closers[i] = nil
		}
	}
}

// SubmitLive submits a signed transaction to every live replica's
// mempool, returning how many accepted it. Individual rejections (a full
// or duplicate-holding pool) are tolerated: under churn a transaction
// only needs to reach some future proposer.
func (d *DurableCluster) SubmitLive(tx *ledger.Tx) int {
	accepted := 0
	for i, r := range d.Replicas {
		if d.down[i] || r == nil {
			continue
		}
		if err := r.Submit(tx); err == nil {
			accepted++
		}
	}
	return accepted
}

// LiveMinHeight returns the lowest chain height across live replicas.
func (d *DurableCluster) LiveMinHeight() uint64 {
	min := ^uint64(0)
	for i, r := range d.Replicas {
		if d.down[i] || r == nil {
			continue
		}
		if h := r.Chain().Height(); h < min {
			min = h
		}
	}
	if min == ^uint64(0) {
		return 0
	}
	return min
}

// LiveMaxHeight returns the highest chain height across live replicas.
func (d *DurableCluster) LiveMaxHeight() uint64 {
	var max uint64
	for i, r := range d.Replicas {
		if d.down[i] || r == nil {
			continue
		}
		if h := r.Chain().Height(); h > max {
			max = h
		}
	}
	return max
}

// RunUntilLiveHeight drives the network until every live replica reaches
// the target height or maxVirtual elapses. It returns the virtual time
// consumed.
func (d *DurableCluster) RunUntilLiveHeight(target uint64, maxVirtual time.Duration) time.Duration {
	start := d.Net.Now()
	deadline := start + maxVirtual
	d.Net.RunWhile(func() bool {
		if d.Net.Now() >= deadline {
			return false
		}
		return d.LiveMinHeight() < target
	})
	return d.Net.Now() - start
}

// ConvergedLive reports whether all live replicas share one contract
// state root (vacuously true with fewer than two live replicas).
func (d *DurableCluster) ConvergedLive() (bool, error) {
	var ref string
	seen := false
	for i, r := range d.Replicas {
		if d.down[i] || r == nil {
			continue
		}
		root, err := r.Engine().StateRoot()
		if err != nil {
			return false, err
		}
		if !seen {
			ref = root.String()
			seen = true
			continue
		}
		if root.String() != ref {
			return false, nil
		}
	}
	return true, nil
}
