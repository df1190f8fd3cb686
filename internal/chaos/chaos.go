// Package chaos is the in-process cluster of the replicated
// trusting-news platform and a deterministic fault-injection harness
// over it. DurableCluster runs N durable validators, each attached to
// consensus through platform.AttachConsensus as the daemon attaches one,
// on the seeded discrete-event network. Harness drives it through
// scripted fault schedules — crashes, restarts, partitions, link
// corruption — and checks the platform's core guarantees after every
// step:
//
//   - no-fork: no two replicas ever commit different blocks at the same
//     height (safety);
//   - committed-durability: a replica that crashes and recovers from its
//     checkpoint and WAL never loses a committed block;
//   - convergence: once faults stop, every live replica reaches the same
//     height and contract state root within bounded virtual time
//     (liveness).
//
// Everything is deterministic for a fixed seed: two runs of the same
// schedule produce identical commit histories, network statistics and
// fingerprints. That makes chaos failures reproducible by seed, the
// property that separates a chaos harness from a flaky test.
package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/consensus"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/simnet"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// Config parameterizes a harness run.
type Config struct {
	// Validators is the cluster size (default 4).
	Validators int
	// Seed drives every random choice: network jitter, fault sampling,
	// churn targets. Same seed, same run.
	Seed int64
	// Dir is the root data directory for the durable replicas.
	Dir string
	// Links overrides the link profile for all pairs (zero value keeps
	// simnet.DefaultLink). This is where corruption, duplication and
	// reordering rates are injected.
	Links simnet.LinkConfig
	// Telemetry receives the chaos fault counters alongside the cluster's
	// own series. Nil creates a private registry.
	Telemetry *telemetry.Registry
	// PumpEvery, when positive, submits PumpBatch publish transactions to
	// the live replicas at this virtual-time interval, so blocks carry
	// real workload while faults fire.
	PumpEvery time.Duration
	// PumpBatch is the number of transactions per pump tick (default 2).
	PumpBatch int
	// Timeouts overrides consensus timeouts (zero = defaults).
	Timeouts consensus.Timeouts
}

// Harness owns a durable cluster and the invariant-checking state.
type Harness struct {
	Cluster *DurableCluster
	Reg     *telemetry.Registry

	// committed is the global commit reference: the first replica to
	// reveal a block at a height pins it; any later disagreement is a
	// fork. It only grows — a crash must never erase history.
	committed map[uint64]ledger.BlockID
	// checked[i] is the height up to which replica i's chain has been
	// verified against committed; reset to zero on restart so recovery is
	// re-audited from genesis.
	checked []uint64
	// crashedAt[i] records replica i's chain height at the moment of its
	// last crash, for the committed-durability check on restart.
	crashedAt map[int]uint64

	client    *keys.KeyPair
	nonce     uint64
	pumpEvery time.Duration
	pumpBatch int

	faults       *telemetry.CounterVec
	checksTotal  *telemetry.Counter
	violations   *telemetry.Counter
	recoverySec  *telemetry.Histogram
	netFaults    *telemetry.GaugeVec
	liveReplicas *telemetry.Gauge
}

// New builds a harness over a fresh durable cluster and starts
// consensus (and the load pump, when configured).
func New(cfg Config) (*Harness, error) {
	if cfg.Validators == 0 {
		cfg.Validators = 4
	}
	if cfg.PumpBatch == 0 {
		cfg.PumpBatch = 2
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	pcfg := platform.DefaultConfig()
	pcfg.Telemetry = reg
	cluster, err := NewDurableCluster(DurableClusterConfig{
		Validators: cfg.Validators,
		Seed:       cfg.Seed,
		Dir:        cfg.Dir,
		Platform:   pcfg,
		Timeouts:   cfg.Timeouts,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Links != (simnet.LinkConfig{}) {
		cluster.Net.SetAllLinks(cfg.Links)
	}
	h := &Harness{
		Cluster:      cluster,
		Reg:          reg,
		committed:    make(map[uint64]ledger.BlockID),
		checked:      make([]uint64, cfg.Validators),
		crashedAt:    make(map[int]uint64),
		client:       keys.FromSeed([]byte("chaos-client")),
		pumpEvery:    cfg.PumpEvery,
		pumpBatch:    cfg.PumpBatch,
		faults:       reg.CounterVec("trustnews_chaos_faults_total", "Faults injected by the chaos harness, by kind.", "kind"),
		checksTotal:  reg.Counter("trustnews_chaos_invariant_checks_total", "Invariant sweeps performed by the chaos harness."),
		violations:   reg.Counter("trustnews_chaos_invariant_violations_total", "Invariant violations detected (any nonzero value is a bug)."),
		recoverySec:  reg.Histogram("trustnews_chaos_recovery_seconds", "Virtual time for the cluster to reconverge after faults.", nil),
		netFaults:    reg.GaugeVec("trustnews_chaos_net_faults", "Network fault-injection counters mirrored from the simulated network.", "kind"),
		liveReplicas: reg.Gauge("trustnews_chaos_live_replicas", "Replicas currently running."),
	}
	cluster.Start()
	if h.pumpEvery > 0 {
		h.schedulePump()
	}
	h.observeNet()
	return h, nil
}

// Close releases the cluster's files.
func (h *Harness) Close() { h.Cluster.Close() }

// schedulePump submits a deterministic batch of publish transactions to
// every live replica at a fixed virtual-time cadence. The timer anchors
// on validator p0's clock but runs harness-side, so it survives any
// replica's crash.
func (h *Harness) schedulePump() {
	anchor := simnet.NodeID("p0")
	var tick func()
	tick = func() {
		h.pump(h.pumpBatch)
		h.Cluster.Net.After(anchor, h.pumpEvery, tick)
	}
	h.Cluster.Net.After(anchor, h.pumpEvery, tick)
}

// pump submits count publish transactions signed by the harness client.
// Rejections by individual mempools are tolerated (a full pool under
// churn is expected); at least one live replica normally accepts.
func (h *Harness) pump(count int) {
	for i := 0; i < count; i++ {
		n := strconv.FormatUint(h.nonce, 10)
		payload, err := supplychain.PublishPayload(
			"chaos-item-"+n, corpus.TopicPolitics,
			"chaos workload statement "+n, nil, "")
		if err != nil {
			return
		}
		tx, err := ledger.NewTx(h.client, h.nonce, "news.publish", payload)
		if err != nil {
			return
		}
		h.nonce++
		h.Cluster.SubmitLive(tx)
	}
}

// observeNet mirrors the network's fault counters into gauges.
func (h *Harness) observeNet() {
	s := h.Cluster.Net.Stats()
	h.netFaults.With("corrupted").Set(float64(s.Corrupted))
	h.netFaults.With("duplicated").Set(float64(s.Duplicated))
	h.netFaults.With("reordered").Set(float64(s.Reordered))
	h.netFaults.With("dropped").Set(float64(s.Dropped))
	h.netFaults.With("dropped_detached").Set(float64(s.DroppedDetached))
	h.liveReplicas.Set(float64(h.Cluster.LiveCount()))
}

// RunFor advances virtual time by d, then checks invariants.
func (h *Harness) RunFor(d time.Duration) error {
	h.Cluster.Net.Run(h.Cluster.Net.Now() + d)
	return h.CheckInvariants()
}

// Crash kills replica i (recording its height for the durability check).
func (h *Harness) Crash(i int) error {
	h.crashedAt[i] = h.Cluster.Replicas[i].Chain().Height()
	if err := h.Cluster.Crash(i); err != nil {
		return err
	}
	h.faults.With("crash").Inc()
	h.observeNet()
	return h.CheckInvariants()
}

// Checkpoint snapshots replica i's derived state to disk.
func (h *Harness) Checkpoint(i int) error {
	if err := h.Cluster.Checkpoint(i); err != nil {
		return err
	}
	h.faults.With("checkpoint").Inc()
	return nil
}

// Restart recovers replica i from disk and rejoins it to consensus. The
// committed-durability invariant is enforced here: the recovered chain
// must retain every block that was durable at crash time (at most the
// final, possibly-torn append may be lost), and must never exceed what
// the cluster actually committed.
func (h *Harness) Restart(i int) error {
	if err := h.Cluster.Restart(i); err != nil {
		return err
	}
	h.faults.With("restart").Inc()
	recovered := h.Cluster.Replicas[i].Chain().Height()
	if was, ok := h.crashedAt[i]; ok && recovered+1 < was {
		h.violations.Inc()
		return fmt.Errorf("chaos: durability violation: replica %d crashed at height %d but recovered only %d", i, was, recovered)
	}
	// Restart re-audits the whole recovered chain against the global
	// commit reference.
	h.checked[i] = 0
	h.observeNet()
	return h.CheckInvariants()
}

// PartitionSplit isolates the given replica-index groups from each other
// (replicas absent from every group fall into group 0 with the rest).
func (h *Harness) PartitionSplit(groups ...[]int) error {
	ids := make([][]simnet.NodeID, len(groups))
	for g, members := range groups {
		for _, i := range members {
			ids[g] = append(ids[g], simnet.NodeID("p"+strconv.Itoa(i)))
		}
	}
	h.Cluster.Net.Partition(ids...)
	h.faults.With("partition").Inc()
	return h.CheckInvariants()
}

// Heal removes all partitions.
func (h *Harness) Heal() error {
	h.Cluster.Net.Heal()
	h.faults.With("heal").Inc()
	return h.CheckInvariants()
}

// CheckInvariants audits every live replica's chain suffix (everything
// above its last audited height) against the global commit reference.
// The first replica to reveal a height pins its block id; disagreement
// is a fork. Called after every fault and time advance.
func (h *Harness) CheckInvariants() error {
	h.checksTotal.Inc()
	for i, r := range h.Cluster.Replicas {
		if h.Cluster.Down(i) || r == nil {
			continue
		}
		chain := r.Chain()
		height := chain.Height()
		for k := h.checked[i]; k < height; k++ {
			b, err := chain.BlockAt(k)
			if err != nil {
				h.violations.Inc()
				return fmt.Errorf("chaos: replica %d cannot read its own height %d: %w", i, k, err)
			}
			id := b.ID()
			if ref, ok := h.committed[k]; ok {
				if ref != id {
					h.violations.Inc()
					return fmt.Errorf("chaos: FORK at height %d: replica %d has %s, reference is %s", k, i, id, ref)
				}
			} else {
				h.committed[k] = id
			}
		}
		h.checked[i] = height
	}
	h.observeNet()
	return nil
}

// WaitConverge drives the network until every live replica reaches the
// current maximum height plus two (so progress past the faulted region
// is proven) and all live state roots agree, or maxVirtual elapses.
// The virtual time consumed feeds the recovery histogram.
func (h *Harness) WaitConverge(maxVirtual time.Duration) error {
	target := h.Cluster.LiveMaxHeight() + 2
	spent := h.Cluster.RunUntilLiveHeight(target, maxVirtual)
	if h.Cluster.LiveMinHeight() < target {
		h.violations.Inc()
		return fmt.Errorf("chaos: liveness violation: stuck at height %d (target %d) after %v virtual",
			h.Cluster.LiveMinHeight(), target, spent)
	}
	if err := h.CheckInvariants(); err != nil {
		return err
	}
	ok, err := h.Cluster.ConvergedLive()
	if err != nil {
		return err
	}
	if !ok {
		h.violations.Inc()
		return fmt.Errorf("chaos: convergence violation: live replicas disagree on state root at height %d", h.Cluster.LiveMinHeight())
	}
	h.recoverySec.Observe(spent.Seconds())
	return nil
}

// CommittedHeight returns the highest height pinned in the global commit
// reference (plus-one semantics: number of committed heights audited).
func (h *Harness) CommittedHeight() uint64 {
	return uint64(len(h.committed))
}

// Fingerprint digests the run's observable outcome — the audited commit
// history, every live replica's height, and the network fault counters —
// into a hex string. Two runs of the same schedule with the same seed
// must produce identical fingerprints.
func (h *Harness) Fingerprint() string {
	sum := sha256.New()
	heights := make([]uint64, 0, len(h.committed))
	for k := range h.committed {
		heights = append(heights, k)
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	var b8 [8]byte
	for _, k := range heights {
		binary.BigEndian.PutUint64(b8[:], k)
		sum.Write(b8[:])
		id := h.committed[k]
		sum.Write(id[:])
	}
	for i, r := range h.Cluster.Replicas {
		if h.Cluster.Down(i) || r == nil {
			binary.BigEndian.PutUint64(b8[:], ^uint64(0))
			sum.Write(b8[:])
			continue
		}
		binary.BigEndian.PutUint64(b8[:], r.Chain().Height())
		sum.Write(b8[:])
	}
	s := h.Cluster.Net.Stats()
	for _, v := range []int{s.Sent, s.Delivered, s.Dropped, s.Corrupted, s.Duplicated, s.Reordered, s.DroppedDetached} {
		binary.BigEndian.PutUint64(b8[:], uint64(v))
		sum.Write(b8[:])
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// GarbleVotes is a consensus-aware corrupter for SetCorrupter: votes get
// a flipped block-id byte (the signature no longer matches, so honest
// nodes must reject them as bad_signature — equivocation pressure
// without forgeable keys), commits lose a quorum vote (bad_certificate),
// and anything else loses its payload entirely (malformed).
func GarbleVotes(m simnet.Message) simnet.Message {
	switch p := m.Payload.(type) {
	case consensus.Vote:
		p.BlockID[0] ^= 0xff
		m.Payload = p
	case *consensus.Commit:
		if p != nil && len(p.Quorum) > 0 {
			cp := *p
			cp.Quorum = cp.Quorum[:len(cp.Quorum)-1]
			m.Payload = &cp
		} else {
			m.Payload = nil
		}
	default:
		m.Payload = nil
	}
	return m
}
