package contract

import (
	"runtime"
	"strings"
	"sync"

	"repro/internal/ledger"
)

// ParallelStats reports scheduler behaviour for one block.
type ParallelStats struct {
	// Txs is the number of transactions executed.
	Txs int
	// Conflicts is the number of transactions whose optimistic result was
	// discarded because an earlier transaction wrote a key they read.
	Conflicts int
	// Workers is the pool size used.
	Workers int
}

// ExecuteBlockParallel executes a block with optimistic concurrency: every
// transaction first runs speculatively in parallel against the pre-block
// state with its read and write sets recorded; a serial commit pass then
// applies results in transaction order, re-executing any transaction whose
// read set overlaps the keys written by earlier transactions.
//
// The final state and receipts are identical to ExecuteBlock's serial
// results — the speculation only changes wall-clock cost. This is the
// "distributed parallel computing architecture" execution model from the
// authors' ICDCS 2018 paper that §IV depends on; experiment E10 sweeps the
// conflict rate and measures the speedup.
func (e *Engine) ExecuteBlockParallel(b *ledger.Block, workers int) ([]Receipt, ParallelStats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(b.Txs)
	stats := ParallelStats{Txs: n, Workers: workers}
	if n == 0 {
		return nil, stats
	}

	type specResult struct {
		rec    Receipt
		writes map[string]writeOp
		reads  map[string]bool
	}
	results := make([]specResult, n)

	// Phase 1: speculative parallel execution against pre-block state.
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range b.Txs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ov := newOverlay(e.state)
			rec, ws := e.executeAgainst(ov, b.Txs[i], b.Header.Height)
			results[i] = specResult{rec: rec, writes: ws, reads: ov.reads}
		}(i)
	}
	wg.Wait()

	// Phase 2: serial commit in tx order with conflict detection.
	written := make(map[string]bool)
	receipts := make([]Receipt, n)
	for i := range b.Txs {
		res := results[i]
		if readsConflict(res.reads, written) {
			// Re-execute against the current (partially updated) state.
			stats.Conflicts++
			ov := newOverlay(e.state)
			rec, ws := e.executeAgainst(ov, b.Txs[i], b.Header.Height)
			res = specResult{rec: rec, writes: ws, reads: ov.reads}
		}
		if res.rec.OK {
			applyWrites(e.state, res.writes)
			for k := range res.writes {
				written[k] = true
			}
		}
		receipts[i] = res.rec
	}
	e.endBlockLocked(b.Header.Height)
	return receipts, stats
}

// readsConflict reports whether any read key (or prefix read, suffixed
// with '*') overlaps the written-key set.
func readsConflict(reads map[string]bool, written map[string]bool) bool {
	if len(written) == 0 || len(reads) == 0 {
		return false
	}
	for r := range reads {
		if strings.HasSuffix(r, "*") {
			prefix := r[:len(r)-1]
			for w := range written {
				if strings.HasPrefix(w, prefix) {
					return true
				}
			}
			continue
		}
		if written[r] {
			return true
		}
	}
	return false
}
