// Shard-lane block execution: the contract state is partitioned into S
// hash-routed shards, a planning pass buckets each transaction by the
// shards its speculative read/write sets touch, and runs of single-shard
// transactions execute concurrently — one lane per shard — while
// cross-shard transactions are sequenced through serial barrier segments.
// A post-wave validation pass proves, per transaction, that lane
// execution observed exactly the values serial execution would have, and
// rolls the whole wave back to the serial path when it cannot; state
// roots and receipts are therefore byte-identical to ExecuteBlock
// whatever the schedule. This extends the optimistic executor
// (parallel.go) to the partitioned-state design ROADMAP item 1 calls
// for: the optimistic scheduler parallelizes only the speculation phase
// and re-executes every conflicting transaction serially, whereas lanes
// re-execute dependent chains concurrently as long as the chains live in
// different shards.
package contract

import (
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/ledger"
	"repro/internal/store"
)

// laneCross marks a transaction whose key set spans shards (or contains
// a prefix scan, which no single shard can answer); it executes in a
// barrier segment.
const laneCross = -1

// ShardStats reports the lane scheduler's behaviour for one block.
type ShardStats struct {
	// Txs is the number of transactions executed.
	Txs int
	// Shards is the lane count planned for.
	Shards int
	// Workers bounds the speculation pool.
	Workers int
	// CrossShardTxs is the number of transactions routed to barrier
	// segments because their key sets spanned shards.
	CrossShardTxs int
	// Waves is the number of parallel lane segments executed.
	Waves int
	// Barriers is the number of serial cross-shard segments executed.
	Barriers int
	// LaneTxs counts transactions executed per lane across all waves
	// (occupancy; length == Shards).
	LaneTxs []int
	// LaneReexecs counts per-lane re-executions: transactions whose
	// speculative result was stale inside a lane (length == Shards).
	LaneReexecs []int
	// BarrierConflicts counts re-executions inside barrier segments.
	BarrierConflicts int
	// WaveAborts counts waves whose lane results failed validation and
	// were re-run through the serial commit path.
	WaveAborts int
	// MaxLaneReexecSum accumulates, per wave, the deepest per-lane
	// re-execution chain — the lane scheduler's critical path in units
	// of transaction executions (E23's modeled-speedup input).
	MaxLaneReexecSum int
}

// Conflicts is the total number of re-executed transactions (lane plus
// barrier), comparable to ParallelStats.Conflicts.
func (s ShardStats) Conflicts() int {
	n := s.BarrierConflicts
	for _, c := range s.LaneReexecs {
		n += c
	}
	return n
}

// ShardPlan is the deterministic execution schedule for one block: a
// lane per transaction (laneCross for barrier transactions) and the
// segment list in block order. The plan is a pure function of the
// transaction list and the committed pre-block state, so every replica
// derives the identical schedule.
type ShardPlan struct {
	// Shards is the lane count the plan was computed for.
	Shards int
	// Lanes holds one entry per transaction: the owning shard, or
	// laneCross for cross-shard transactions.
	Lanes []int
	// Segments partitions the block into maximal runs of same-kind
	// transactions, in block order.
	Segments []PlanSegment
}

// PlanSegment is one schedule segment: txs [From, To) of the block,
// either a parallel wave (Cross == false) or a serial barrier.
type PlanSegment struct {
	From, To int
	Cross    bool
}

// PlanBlock computes the shard-lane schedule for a block against the
// committed state without applying anything: transactions run
// speculatively to record read/write sets, and each is bucketed by the
// shards those sets hash into. Exposed for the plan-determinism fuzz
// target; ExecuteBlockSharded plans internally.
func (e *Engine) PlanBlock(b *ledger.Block, shards, workers int) *ShardPlan {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return planFrom(b, e.speculate(b, workers), shards)
}

// planFrom buckets each transaction by the shards its speculative key
// set touches and cuts the block into wave/barrier segments.
func planFrom(b *ledger.Block, spec []specResult, shards int) *ShardPlan {
	p := &ShardPlan{Shards: shards, Lanes: make([]int, len(b.Txs))}
	for i := range b.Txs {
		p.Lanes[i] = laneFor(b.Txs[i], spec[i], shards)
	}
	for i := 0; i < len(p.Lanes); {
		j := i + 1
		cross := p.Lanes[i] == laneCross
		for j < len(p.Lanes) && (p.Lanes[j] == laneCross) == cross {
			j++
		}
		p.Segments = append(p.Segments, PlanSegment{From: i, To: j, Cross: cross})
		i = j
	}
	return p
}

// laneFor returns the single shard owning every key the transaction
// speculatively read or wrote, or laneCross when the set spans shards or
// contains a prefix scan. A transaction that touched no state commutes
// with everything; it is routed by sender hash for load spread.
func laneFor(tx *ledger.Tx, res specResult, shards int) int {
	lane := -2 // unassigned
	for r := range res.reads {
		if strings.HasSuffix(r, "*") {
			return laneCross // a prefix scan can observe any shard
		}
		s := store.ShardOf(r, shards)
		if lane == -2 {
			lane = s
		} else if lane != s {
			return laneCross
		}
	}
	for w := range res.writes {
		s := store.ShardOf(w, shards)
		if lane == -2 {
			lane = s
		} else if lane != s {
			return laneCross
		}
	}
	if lane == -2 {
		lane = store.ShardOf(tx.Sender.String(), shards)
	}
	return lane
}

// laneView is the read surface a lane executes against: the committed
// block state plus the lane's own accumulated writes. Only Get and Keys
// are exercised (overlays never write through their base).
type laneView struct {
	base   store.KV
	writes map[string]writeOp
}

var _ store.KV = (*laneView)(nil)

func (l *laneView) Get(key string) ([]byte, error) {
	if op, ok := l.writes[key]; ok {
		if op.deleted {
			return nil, store.ErrNotFound
		}
		out := make([]byte, len(op.value))
		copy(out, op.value)
		return out, nil
	}
	return l.base.Get(key)
}

func (l *laneView) Keys(prefix string) ([]string, error) {
	baseKeys, err := l.base.Keys(prefix)
	if err != nil {
		return nil, err
	}
	merged := mergeKeys(baseKeys, l.writes, prefix)
	return merged, nil
}

func (l *laneView) Put(string, []byte) error             { return store.ErrNotFound } // never called
func (l *laneView) Delete(string) error                  { return store.ErrNotFound } // never called
func (l *laneView) Snapshot() (map[string][]byte, error) { return nil, store.ErrNotFound }
func (l *laneView) Close() error                         { return nil }

// ExecuteBlockSharded executes a block through the shard-lane scheduler:
// speculation records read/write sets, the planner cuts the block into
// parallel waves and serial barriers, lanes execute wave transactions
// concurrently per shard, and a validation pass in block order confirms
// every lane read matches what serial execution would have observed —
// falling back to the serial commit path for any wave it cannot prove.
// State roots and receipts are byte-identical to ExecuteBlock; shards
// and the worker bound only change wall-clock cost. shards <= 1
// degrades to the optimistic executor.
func (e *Engine) ExecuteBlockSharded(b *ledger.Block, shards, workers int) ([]Receipt, ShardStats) {
	if shards <= 1 {
		recs, ps := e.ExecuteBlockParallel(b, workers)
		return recs, ShardStats{
			Txs: ps.Txs, Shards: 1, Workers: ps.Workers,
			LaneTxs: []int{ps.Txs}, LaneReexecs: []int{ps.Conflicts},
			Waves: 1, MaxLaneReexecSum: ps.Conflicts,
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(b.Txs)
	stats := ShardStats{
		Txs: n, Shards: shards, Workers: workers,
		LaneTxs: make([]int, shards), LaneReexecs: make([]int, shards),
	}
	if n == 0 {
		return nil, stats
	}
	spec := e.speculate(b, workers)
	plan := planFrom(b, spec, shards)
	receipts := make([]Receipt, n)
	// written accumulates every key applied since block start; wave and
	// barrier validity checks run against it.
	written := make(map[string]bool)
	for _, seg := range plan.Segments {
		if seg.Cross {
			stats.Barriers++
			stats.CrossShardTxs += seg.To - seg.From
			stats.BarrierConflicts += e.commitSpan(b, spec, seg.From, seg.To, written, receipts)
			continue
		}
		stats.Waves++
		e.commitWave(b, spec, plan, seg, written, receipts, &stats)
	}
	return receipts, stats
}

// commitWave executes one wave: lane workers run their transactions in
// block order against the committed state plus lane-local writes,
// reusing speculative results whose read sets are still fresh and
// re-executing the rest; a serial validation pass then proves the lane
// schedule equivalent to serial execution before any write is applied.
// On validation failure the wave's results are discarded and the span
// re-commits through the serial path (state was not yet touched, so the
// fallback is exact).
func (e *Engine) commitWave(b *ledger.Block, spec []specResult, plan *ShardPlan, seg PlanSegment, written map[string]bool, receipts []Receipt, stats *ShardStats) {
	// Bucket the wave's transactions per lane, preserving block order.
	laneIdx := make(map[int][]int)
	for i := seg.From; i < seg.To; i++ {
		lane := plan.Lanes[i]
		laneIdx[lane] = append(laneIdx[lane], i)
	}
	final := make([]specResult, seg.To-seg.From)
	reexecs := make([]int, plan.Shards)
	var wg sync.WaitGroup
	for lane, idxs := range laneIdx {
		wg.Add(1)
		go func(lane int, idxs []int) {
			defer wg.Done()
			laneWrites := make(map[string]writeOp)
			view := &laneView{base: e.state, writes: laneWrites}
			for _, i := range idxs {
				res := spec[i]
				// The speculative result ran against pre-block state; it
				// stays valid only while nothing it read has been
				// rewritten — by earlier segments (written) or by this
				// lane's earlier transactions.
				if readsConflict(res.reads, written) || overlaps(res.reads, laneWrites) {
					reexecs[lane]++
					ov := newOverlay(view)
					rec, ws := e.executeAgainst(ov, b.Txs[i], b.Header.Height)
					res = specResult{rec: rec, writes: ws, reads: ov.reads}
				}
				final[i-seg.From] = res
				if res.rec.OK {
					for k, op := range res.writes {
						laneWrites[k] = op
					}
				}
			}
		}(lane, idxs)
	}
	wg.Wait()

	// Validation in block order: a lane transaction's reads must never
	// cover a key whose latest earlier write came from another lane —
	// that is exactly the condition under which lane-local visibility
	// and serial visibility return different values. Prefix scans
	// conflict with any other-lane write under the prefix.
	lastWriter := make(map[string]int)
	valid := true
validate:
	for i := seg.From; i < seg.To; i++ {
		lane := plan.Lanes[i]
		res := final[i-seg.From]
		for r := range res.reads {
			if strings.HasSuffix(r, "*") {
				prefix := r[:len(r)-1]
				for k, l := range lastWriter {
					if l != lane && strings.HasPrefix(k, prefix) {
						valid = false
						break validate
					}
				}
				continue
			}
			if l, ok := lastWriter[r]; ok && l != lane {
				valid = false
				break validate
			}
		}
		if res.rec.OK {
			for w := range res.writes {
				lastWriter[w] = lane
			}
		}
	}
	if !valid {
		// The plan mispredicted (a value-dependent read escaped its
		// shard mid-block). Nothing was applied, so the serial commit
		// path reproduces exact serial semantics from the wave start.
		stats.WaveAborts++
		stats.BarrierConflicts += e.commitSpan(b, spec, seg.From, seg.To, written, receipts)
		return
	}
	// Apply in block order: last-writer-wins matches serial execution
	// even when lanes wrote overlapping keys.
	maxReexec := 0
	for i := seg.From; i < seg.To; i++ {
		res := final[i-seg.From]
		if res.rec.OK {
			applyWrites(e.state, res.writes)
			for k := range res.writes {
				written[k] = true
			}
		}
		receipts[i] = res.rec
		stats.LaneTxs[plan.Lanes[i]]++
	}
	for lane, c := range reexecs {
		stats.LaneReexecs[lane] += c
		if c > maxReexec {
			maxReexec = c
		}
	}
	stats.MaxLaneReexecSum += maxReexec
}

// mergeKeys merges a sorted base key list with a lane write set under a
// prefix, honouring deletions, and returns the sorted union.
func mergeKeys(baseKeys []string, writes map[string]writeOp, prefix string) []string {
	set := make(map[string]bool, len(baseKeys))
	for _, k := range baseKeys {
		set[k] = true
	}
	for k, op := range writes {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if op.deleted {
			delete(set, k)
			continue
		}
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
