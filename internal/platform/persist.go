package platform

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/contract"
	"repro/internal/factdb"
	"repro/internal/ledger"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Durable deployment: a platform whose chain is backed by the
// write-ahead-logged file store. Contract state is a pure function of the
// block sequence, and so is everything derived from it: the views each
// commit feeds (fact index, search index), the receipts, kept in a log of
// their own beside the chain (receipts.go), the chain's transaction index,
// whose sealed segments live in txindex.log, and the contract state's own
// segments, in state.log. The supply-chain
// graph keeps nothing to derive: it reads contract state. Reopen
// therefore has two paths:
//
//   - checkpoint restore: load the latest CRC-guarded checkpoint, restore
//     contract state and both views from their blobs, verify the restored
//     contract state against the checkpoint's state hash, and replay only
//     the WAL tail above the checkpoint height — O(tail) instead of
//     O(chain length);
//   - full replay: execute every block through the contract engine (the
//     original behaviour), used when no checkpoint exists or the
//     checkpoint fails any verification step. Replay also re-verifies the
//     chain's integrity (a tampered block file fails CRC or
//     re-validation), so the checkpoint never weakens tamper evidence.
//
// The receipt log picks the path too: replay writes the receipts of every
// block from the log's end on, and it can only start where state is known
// — at the checkpoint or at zero — so a receipt log that ends below the
// checkpoint (missing, cut at a damaged record, or from before the node
// had one) means full replay. So does a state.log that lacks a segment the
// checkpoint names (the checkpoint's contract-state blob lists them, with
// the memtable): full replay starts that log over. The transaction index
// picks nothing: the chain rebuilds whatever txindex.log lacks from
// chain.log on either path.
//
// Both paths check, before executing each block whose header commits to a
// state root (a standalone block's: the root its predecessors left; a
// cluster block's is zero), that the engine holds that root, and fail Open
// with ErrStateRootMismatch if not. So the tail's first header attests a
// restored checkpoint; one at the tip has only its state hash.

// Durable file names inside the data directory.
const (
	chainLogName   = "chain.log"
	txIndexLogName = "txindex.log"
	stateLogName   = "state.log"
	checkpointName = "checkpoint.ckpt"
)

// ErrNotDurable indicates a checkpoint operation on an in-memory node.
var ErrNotDurable = errors.New("platform: node has no data directory")

// ErrStateRootMismatch fails Open when replay reaches a block with the
// contract state at another root than the block's header commits to: the
// log was altered, or was written under another contract.StateRootScheme
// or before standalone headers carried the deferred root.
var ErrStateRootMismatch = errors.New("platform: replayed state root does not match block header")

// Open creates or reopens a durable platform at dir. The chain log lives
// in dir/chain.log, the sealed transaction-index segments in
// dir/txindex.log, the contract state's segments in dir/state.log, the
// receipt log in dir/receipts.log, article bodies in dir/blobs and
// checkpoints in dir/checkpoint.ckpt. The returned close function stops the
// background merges and releases the logs and the blob store.
//
// When a valid checkpoint is present the chain itself reopens from the
// checkpointed index snapshot — only the WAL tail above the checkpoint
// height is decoded and re-validated — and the derived indexes restore
// from their snapshot blobs. Any verification failure along that path
// discards the partial state and falls back to the original full-replay
// open, so a bad checkpoint can delay a restart but never corrupt one.
//
// The node reports how long this took, by phase (Boot).
func Open(dir string, cfg Config) (*Platform, func() error, error) {
	start := time.Now()
	// Off-chain article bodies persist beside the chain: the blob store
	// loads before any replay or checkpoint restore, so hydration during
	// either path reads the same bytes the previous run committed.
	if cfg.BlobDir == "" {
		cfg.BlobDir = filepath.Join(dir, "blobs")
	}
	var logs durableLogs
	if err := logs.open(dir); err != nil {
		return nil, nil, err
	}
	logs.instrument(cfg.Telemetry)
	closeNode := func(p *Platform) func() error {
		return func() error { return errors.Join(p.stop(), logs.close()) }
	}
	restoreStart := time.Now()
	if cp, err := store.ReadCheckpoint(filepath.Join(dir, checkpointName)); err == nil && logs.receipts.Len() >= cp.Height {
		if p, err := openFromCheckpoint(dir, cfg, &logs, cp); err == nil {
			p.boot.Restore = time.Since(restoreStart) - p.boot.Replay
			p.opened(start)
			return p, closeNode(p), nil
		}
	}
	restore := time.Since(restoreStart)

	// Full replay: decode, validate and re-execute every block, with the
	// replay's body validation fanned across the verification pipeline.
	chain, err := ledger.NewChain(logs.chain, logs.txIndex)
	if err != nil {
		logs.close()
		return nil, nil, fmt.Errorf("platform: reopen chain: %w", err)
	}
	p, err := assemble(cfg, dir, chain, logs.receipts, logs.state)
	if err != nil {
		chain.Close()
		logs.close()
		return nil, nil, err
	}
	if err := p.engine.RestoreState(nil); err != nil {
		closeNode(p)()
		return nil, nil, fmt.Errorf("platform: empty the state log: %w", err)
	}
	replayStart := time.Now()
	if err := p.replayFrom(0); err != nil {
		closeNode(p)()
		return nil, nil, fmt.Errorf("platform: replay: %w", err)
	}
	p.boot.Restore, p.boot.Replay = restore, time.Since(replayStart)
	p.opened(start)
	return p, closeNode(p), nil
}

// BootTimes splits a node's start-up into phases. Restore and Replay are
// parts of Open; Train is not.
type BootTimes struct {
	// Open is the whole of Open (zero for an in-memory node).
	Open time.Duration
	// Restore is the time spent on the checkpoint: reading it, reopening
	// the chain from its snapshot, restoring the views and checking
	// the state root. When the checkpoint proved unusable it is what the
	// attempt cost before the full replay.
	Restore time.Duration
	// Replay is the time spent executing blocks: the tail above the
	// checkpoint, or the whole chain.
	Replay time.Duration
	// Train is the last TrainClassifier's time.
	Train time.Duration
}

// Boot reports how long the node took to start, by phase; the same split is
// exported as trustnews_boot_seconds{phase}.
func (p *Platform) Boot() BootTimes {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.boot
}

// opened records the open, restore and replay phases of an Open that
// started at start.
func (p *Platform) opened(start time.Time) {
	p.boot.Open = time.Since(start)
	p.tm.boot.With("open").Set(p.boot.Open.Seconds())
	p.tm.boot.With("restore").Set(p.boot.Restore.Seconds())
	p.tm.boot.With("replay").Set(p.boot.Replay.Seconds())
}

// durableLogs are the logs of a data directory.
type durableLogs struct {
	chain, txIndex, state *store.FileLog
	receipts              *store.FileLog
}

func (l *durableLogs) open(dir string) error {
	var err error
	if l.chain, err = store.OpenFileLog(filepath.Join(dir, chainLogName)); err != nil {
		return err
	}
	// Index and state segments are derived from chain.log: a torn or
	// damaged one ends its log there, and the chain rebuilds the rest of
	// the index, a replay the rest of the state.
	if l.txIndex, err = store.OpenFileLogTruncating(filepath.Join(dir, txIndexLogName)); err != nil {
		l.close()
		return fmt.Errorf("platform: tx index log: %w", err)
	}
	if l.state, err = store.OpenFileLogTruncating(filepath.Join(dir, stateLogName)); err != nil {
		l.close()
		return fmt.Errorf("platform: state log: %w", err)
	}
	if l.receipts, err = openReceiptLog(filepath.Join(dir, receiptLogName), l.chain.Len()); err != nil {
		l.close()
		return err
	}
	return nil
}

// instrument times every fsync of the logs, each under its own label.
func (l *durableLogs) instrument(reg *telemetry.Registry) {
	l.chain.Instrument(reg, "chain")
	l.txIndex.Instrument(reg, "txindex")
	l.state.Instrument(reg, "state")
	l.receipts.Instrument(reg, "receipts")
}

func (l *durableLogs) close() error {
	var errs []error
	for _, f := range []*store.FileLog{l.chain, l.txIndex, l.state, l.receipts} {
		if f != nil {
			errs = append(errs, f.Close())
		}
	}
	return errors.Join(errs...)
}

// stop ends what a node runs beside its logs — the state's and the
// transaction index's merges — and closes the blob store.
func (p *Platform) stop() error {
	return errors.Join(p.engine.Close(), p.chain.Close(), p.blobs.Close())
}

// openFromCheckpoint attempts the fast reopen path: rebuild the chain
// from the checkpoint's index snapshot (validating only the WAL tail),
// restore contract state and the views from their blobs, verify the state
// against the checkpoint hash, then replay just the tail, whose first
// header holds the restored state to its root. Any error means the caller
// must fall back to the full-replay path, with everything this attempt
// started stopped; nothing here mutates the chain log, what the tail
// replay adds to the receipt log is what full replay would add, the
// segments the chain writes to the index log are ones any open writes, and
// full replay starts the state log over.
func openFromCheckpoint(dir string, cfg Config, logs *durableLogs, cp *store.Checkpoint) (*Platform, error) {
	chain, err := ledger.NewChainFromSnapshot(logs.chain, logs.txIndex, cp.Chain)
	if err != nil {
		return nil, err
	}
	p, err := assemble(cfg, dir, chain, logs.receipts, logs.state)
	if err != nil {
		chain.Close()
		return nil, err
	}
	if err := p.restoreCheckpoint(cp); err != nil {
		p.stop()
		return nil, err
	}
	replayStart := time.Now()
	if err := p.replayFrom(cp.Height); err != nil {
		p.stop()
		return nil, fmt.Errorf("platform: replay tail: %w", err)
	}
	p.boot.Replay = time.Since(replayStart)
	return p, nil
}

// restoreCheckpoint verifies a checkpoint against the reopened chain and
// restores contract state and the views from its blobs. Any failure
// returns an error with the platform in an undefined derived state — the
// caller must discard it and fall back to full replay.
func (p *Platform) restoreCheckpoint(cp *store.Checkpoint) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cp.RootScheme != contract.StateRootScheme {
		return fmt.Errorf("platform: checkpoint state root scheme %d, this build uses %d", cp.RootScheme, contract.StateRootScheme)
	}
	if cp.Height > p.chain.Height() {
		return fmt.Errorf("platform: checkpoint height %d beyond chain height %d", cp.Height, p.chain.Height())
	}
	if cp.Height > 0 {
		blk, err := p.chain.BlockAt(cp.Height - 1)
		if err != nil {
			return fmt.Errorf("platform: checkpoint head: %w", err)
		}
		if got := blk.ID().String(); got != cp.HeadID {
			return fmt.Errorf("platform: checkpoint head id %s does not match chain %s", cp.HeadID, got)
		}
	}
	if err := p.restoreViewsLocked(cp.Subscribers); err != nil {
		return err
	}
	// The restored contract state must hash to the checkpoint's recorded
	// root. The header that commits to it is the next block's, which
	// replayFrom checks first.
	root, err := p.engine.StateRoot()
	if err != nil {
		return fmt.Errorf("platform: restored state root: %w", err)
	}
	if root.String() != cp.StateHash {
		return fmt.Errorf("platform: restored state root %s does not match checkpoint %s", root.String(), cp.StateHash)
	}
	p.ckptHeight = cp.Height
	return nil
}

// replayFrom re-executes committed blocks from the given height upward,
// feeding each through the receipt log and the views like a live
// commit (but enqueueing no penalty, see penalizeOffendersLocked). Before
// executing a block it holds the state to the root the block's header
// carries: the root its predecessors left, on a standalone chain; none on
// a cluster's, so a validator's replay hashes nothing. The receipt log may
// reach above from: those blocks' receipts stay as they are and writing
// resumes where the log ends.
func (p *Platform) replayFrom(from uint64) error {
	var failed error
	err := p.chain.Walk(from, func(b *ledger.Block) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		if want := b.Header.StateRoot; !want.IsZero() {
			got, err := p.engine.StateRoot()
			if err != nil {
				failed = fmt.Errorf("platform: state root before block %d: %w", b.Header.Height, err)
				return false
			}
			if got != want {
				failed = fmt.Errorf("%w: block %d commits to %s, replay reached %s", ErrStateRootMismatch, b.Header.Height, want.Short(), got.Short())
				return false
			}
		}
		recs := p.engine.ExecuteBlock(b)
		if failed = p.recordReceiptsLocked(b.Header.Height, recs); failed != nil {
			return false
		}
		_ = p.updateViewsLocked(recs)
		return true
	})
	p.setStoreGauges()
	if failed != nil {
		return failed
	}
	return err
}

// WriteCheckpoint snapshots the node's derived state — contract state,
// fact index, search index, the chain's block ids and
// nonces — into dir/checkpoint.ckpt, atomically replacing any previous
// checkpoint. Subsequent Opens restore it and replay only the newer WAL
// tail. The supply-chain graph is not in it: it reads contract state. Receipts
// are not in it: the receipt log is made durable first, so every block the
// checkpoint covers has its receipts on disk. The contract state is there
// by reference: its blob names the segments of state.log, which is synced,
// and holds only the memtable. The transaction index is not in it at all:
// Open checks txindex.log against the chain and rebuilds what it lacks, so
// that log is never synced. Both logs are rewritten here without the
// records merges left dead, once those outweigh the live ones. It waits
// for a commit in flight, whose block is appended before it is executed.
func (p *Platform) WriteCheckpoint() error {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dir == "" {
		return ErrNotDurable
	}
	height := p.chain.Height()
	var headID string
	if height > 0 {
		headID = p.chain.HeadID().String()
	}
	if err := p.receipts.Sync(); err != nil {
		return fmt.Errorf("platform: checkpoint: receipt log: %w", err)
	}
	if err := p.chain.ReclaimTxIndex(); err != nil {
		return fmt.Errorf("platform: checkpoint: tx index log: %w", err)
	}
	root, err := p.engine.StateRoot()
	if err != nil {
		return fmt.Errorf("platform: checkpoint state root: %w", err)
	}
	blobs, err := p.snapshotViewsLocked()
	if err != nil {
		return err
	}
	chainSnap, err := p.chain.SnapshotState()
	if err != nil {
		return err
	}
	cp := &store.Checkpoint{
		Height:      height,
		HeadID:      headID,
		StateHash:   root.String(),
		RootScheme:  contract.StateRootScheme,
		Chain:       chainSnap,
		Subscribers: blobs,
	}
	if err := store.WriteCheckpoint(filepath.Join(p.dir, checkpointName), cp); err != nil {
		return err
	}
	p.ckptHeight = height
	return nil
}

// stateSubscriberName keys the contract state's blob in a checkpoint; the
// views' blobs are keyed by factdb.SubscriberName and search.SubscriberName.
// The keys are on disk: checkpoints of older builds restore by them.
const stateSubscriberName = "contract-state"

// snapshotViewsLocked serializes contract state, the fact index and the
// search index, keyed by name, as one consistent cut: the caller holds
// p.commitMu and p.mu, so no commit runs. The state's blob names the
// segments of state.log that hold it and carries the memtable
// (store.LSM.Manifest).
func (p *Platform) snapshotViewsLocked() (map[string][]byte, error) {
	state, err := p.engine.StateCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("platform: snapshot contract state: %w", err)
	}
	facts, err := p.factIndex.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("platform: snapshot fact index: %w", err)
	}
	searchBlob, err := p.indexer.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("platform: snapshot search index: %w", err)
	}
	return map[string][]byte{
		stateSubscriberName:   state,
		factdb.SubscriberName: facts,
		search.SubscriberName: searchBlob,
	}, nil
}

// restoreViewsLocked restores contract state, the fact index and the search
// index from a checkpoint's blobs. A checkpoint that lacks any of the three
// fails before anything is restored, so Open replays in full; a blob none of
// them reads (one a removed view left) is ignored. A state blob that is not
// a segment manifest — the gob map of a checkpoint written before the state
// had a log of its own — fails too. Caller holds p.mu.
func (p *Platform) restoreViewsLocked(blobs map[string][]byte) error {
	for _, name := range []string{stateSubscriberName, factdb.SubscriberName, search.SubscriberName} {
		if _, ok := blobs[name]; !ok {
			return fmt.Errorf("platform: checkpoint has no %s blob", name)
		}
	}
	if err := p.engine.RestoreStateCheckpoint(blobs[stateSubscriberName]); err != nil {
		return fmt.Errorf("platform: restore contract state: %w", err)
	}
	if err := p.factIndex.Restore(blobs[factdb.SubscriberName]); err != nil {
		return err
	}
	return p.indexer.Restore(blobs[search.SubscriberName])
}
