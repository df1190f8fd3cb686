// Package contract implements the smart-contract engine that governs the
// trusting-news platform: chaincode-style contracts written in Go execute
// deterministically against a key-value state with gas metering, emit
// events consumed by the supply-chain indexer, and can run either serially
// or through an optimistic parallel scheduler.
//
// The paper leans on smart contracts throughout §V ("managed by various
// smart contracts") and names scalable contract execution as a key
// challenge in §VII, citing the authors' ICDCS 2018 work on transforming
// blockchain into a distributed parallel computing architecture — the
// parallel executor here reproduces that design and experiment E10
// measures its speedup against the serial baseline.
package contract

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Errors returned by this package.
var (
	// ErrUnknownContract indicates a tx kind routed to no contract.
	ErrUnknownContract = errors.New("contract: unknown contract")
	// ErrUnknownMethod indicates a method the contract does not export.
	ErrUnknownMethod = errors.New("contract: unknown method")
	// ErrOutOfGas indicates the per-transaction gas budget was exhausted.
	ErrOutOfGas = errors.New("contract: out of gas")
	// ErrBadKind indicates a tx kind that is not "contract.method".
	ErrBadKind = errors.New("contract: malformed tx kind")
	// ErrDuplicateContract indicates a second registration of a name.
	ErrDuplicateContract = errors.New("contract: duplicate contract")
)

// Gas costs per state operation.
const (
	GasGet    = 10
	GasPut    = 25
	GasDelete = 15
	GasKeys   = 50
	GasEmit   = 5
	// GasPerByte prices payload bytes written to state.
	GasPerByte = 1
	// DefaultGasLimit is the per-transaction budget.
	DefaultGasLimit = 1_000_000
)

// Event is emitted by contracts during execution; the supply-chain graph
// and the ranking engine index the ledger through these.
type Event struct {
	Contract string            `json:"contract"`
	Type     string            `json:"type"`
	Attrs    map[string]string `json:"attrs"`
}

// Receipt records the outcome of executing one transaction.
type Receipt struct {
	TxID    ledger.TxID `json:"txId"`
	OK      bool        `json:"ok"`
	Result  []byte      `json:"result,omitempty"`
	Err     string      `json:"err,omitempty"`
	GasUsed uint64      `json:"gasUsed"`
	Events  []Event     `json:"events,omitempty"`
}

// Contract is the chaincode interface. Implementations must be
// deterministic: same state + same tx => same writes, result and events.
type Contract interface {
	// Name is the routing prefix in tx kinds ("name.method").
	Name() string
	// Execute runs a method. State access goes through ctx.
	Execute(ctx *Context, method string, args []byte) ([]byte, error)
}

// Engine routes transactions to contracts and maintains the state store.
type Engine struct {
	mu        sync.RWMutex
	contracts map[string]Contract
	state     *store.LSM
	gasLimit  uint64

	// rootMu guards trie, the authenticated image of state that StateRoot
	// and StateProof bring up to date from the store's change feed. It is
	// apart from mu so a root never makes queries wait. A nil trie is
	// rebuilt from a full scan of the state when next asked for.
	rootMu sync.Mutex
	trie   *merkle.Trie
	// sinceRoot counts the blocks executed since the last StateRoot; a
	// restore sets it to unrestoredBlocks. See StateRoot.
	sinceRoot atomic.Int64
}

// unrestoredBlocks is what a restore sets Engine.sinceRoot to: a root is
// then not being asked for block by block.
const unrestoredBlocks = 2

// The contract state is a store.LSM: a memtable of the newest writes, sealed
// at a block boundary once it holds stateSealEntries entries or
// stateSealBytes bytes of keys and values, and sorted segments on the
// engine's state log.
const (
	stateSealEntries = 4096
	stateSealBytes   = 1 << 20
)

// StateRootScheme versions how StateRoot commits to the state and which
// state a standalone header's root is of. A checkpoint records the scheme
// its StateHash was computed under, and one from another scheme is not
// restored (store.Checkpoint.RootScheme).
//
//	0  sorted key||0||value leaves under merkle.Root, re-hashed in full
//	1  merkle.Trie over the state keys; the root after its block
//	2  as 1; the root before its block (deferred)
const StateRootScheme = 2

// NewEngine creates an engine whose state lives in memory (a store.MemLog).
func NewEngine() *Engine { return NewEngineOn(store.NewMemLog()) }

// NewEngineOn creates an engine over an empty state whose segments go to
// log: state.log on a durable node. What log holds already is not read;
// RestoreStateCheckpoint does that, and RestoreState drops it.
func NewEngineOn(log store.SegmentLog) *Engine {
	return NewEngineWith(log, store.LSMConfig{SealEntries: stateSealEntries, SealBytes: stateSealBytes})
}

// NewEngineWith is NewEngineOn with the memtable sealed at cfg's size
// instead of the node's (tests seal every few keys).
func NewEngineWith(log store.SegmentLog, cfg store.LSMConfig) *Engine {
	return &Engine{
		contracts: make(map[string]Contract),
		state:     store.NewLSM(log, cfg),
		gasLimit:  DefaultGasLimit,
		trie:      merkle.NewTrie(),
	}
}

// SetGasLimit overrides the per-tx budget (0 restores the default).
func (e *Engine) SetGasLimit(limit uint64) {
	if limit == 0 {
		limit = DefaultGasLimit
	}
	e.gasLimit = limit
}

// Register adds a contract.
func (e *Engine) Register(c Contract) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.contracts[c.Name()]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateContract, c.Name())
	}
	e.contracts[c.Name()] = c
	return nil
}

// State exposes read-only access to committed state for queries. Callers
// must not mutate through it outside Execute.
func (e *Engine) State() store.KV { return e.state }

// Get reads one key of the committed state under the engine's read lock,
// so it sees the state between two blocks, never one half executed.
func (e *Engine) Get(key string) ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.state.Get(key)
}

// Scan calls fn for every committed key with the prefix, in key order, with
// a copy of its value (store.LSM.Scan). The state is read a batch at a time
// and fn runs without the engine's lock, so a block committed during the
// scan may be seen in part.
func (e *Engine) Scan(prefix string, fn func(key string, val []byte) error) error {
	return e.state.Scan(prefix, fn)
}

// StateStats reports the state store's size.
func (e *Engine) StateStats() store.LSMStats { return e.state.Stats() }

// InstrumentState registers the state store's series
// (trustnews_store_segments{log="state"} and its merges) on reg.
func (e *Engine) InstrumentState(reg *telemetry.Registry) { e.state.Instrument(reg, "state") }

// StateSnapshot returns a deep copy of the committed contract state — every
// key, read back from the state log.
func (e *Engine) StateSnapshot() (map[string][]byte, error) {
	return e.state.Snapshot()
}

// RestoreState replaces the committed contract state with a snapshot,
// written as one segment of a state log cut to it — nothing but an empty
// log for a nil snapshot (the caller re-verifies the state root afterward).
func (e *Engine) RestoreState(snap map[string][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sinceRoot.Store(unrestoredBlocks)
	return e.state.Import(snap)
}

// StateCheckpoint is the engine's part of a checkpoint: the state log is
// first rewritten without dead records if they outweigh the live ones,
// then synced, and the returned manifest names its live segments and
// carries the memtable (store.LSM.Manifest).
func (e *Engine) StateCheckpoint() ([]byte, error) {
	if _, err := e.state.Reclaim(); err != nil {
		return nil, err
	}
	return e.state.Manifest()
}

// RestoreStateCheckpoint brings the state back to what StateCheckpoint
// described, from the records of the state log it names.
func (e *Engine) RestoreStateCheckpoint(manifest []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sinceRoot.Store(unrestoredBlocks)
	return e.state.RestoreManifest(manifest)
}

// Close stops the state store's background merges, waiting for one in
// flight. The state log stays open: its owner closes it.
func (e *Engine) Close() error { return e.state.Close() }

// StateRoot returns the commitment to the committed state that block
// headers carry: the root of a merkle.Trie over the state's keys (the
// zero hash for an empty state). Asked for after every block, it re-hashes
// only the keys written since the last call, so the cost follows the write
// set, not the state.
//
// A node nobody asks block by block — a cluster validator, whose consensus
// headers carry no root, computes one only for a checkpoint — would keep a
// hash per key between checkpoints for nothing. So a root asked for more
// than one block after the last one (or after a restore) is computed from
// a full scan and the trie is dropped at once, with the store's change
// tracking; the next root scans again.
func (e *Engine) StateRoot() (merkle.Hash, error) {
	e.rootMu.Lock()
	defer e.rootMu.Unlock()
	if err := e.syncTrieLocked(); err != nil {
		return merkle.Hash{}, err
	}
	root := e.trie.Root()
	if e.sinceRoot.Swap(0) > 1 {
		e.trie = nil
		e.state.StopTracking()
	}
	return root, nil
}

// StateProof returns key's committed value with the proof that it sits
// under the current StateRoot (merkle.VerifyTrieProof checks it).
func (e *Engine) StateProof(key string) ([]byte, merkle.TrieProof, error) {
	e.rootMu.Lock()
	defer e.rootMu.Unlock()
	if err := e.syncTrieLocked(); err != nil {
		return nil, merkle.TrieProof{}, err
	}
	val, err := e.state.Get(key)
	if err != nil {
		return nil, merkle.TrieProof{}, err
	}
	proof, err := e.trie.Prove(key)
	return val, proof, err
}

// syncTrieLocked folds the store's change feed into the trie, or builds
// the trie from a scan of the whole state when there is none or the store
// stopped tracking (after a restore, a write set covering most of the
// state, or a dropped trie). Caller holds rootMu.
func (e *Engine) syncTrieLocked() error {
	entries, all := e.state.DrainDirty()
	if all || e.trie == nil {
		e.trie = merkle.NewTrie()
		return e.state.Scan("", func(key string, val []byte) error {
			e.trie.Put(key, val)
			return nil
		})
	}
	for _, w := range entries {
		if w.Live {
			e.trie.Put(w.Key, w.Val)
		} else {
			e.trie.Delete(w.Key)
		}
	}
	return nil
}

// splitKind parses "contract.method".
func splitKind(kind string) (string, string, error) {
	i := strings.IndexByte(kind, '.')
	if i <= 0 || i == len(kind)-1 {
		return "", "", fmt.Errorf("%w: %q", ErrBadKind, kind)
	}
	return kind[:i], kind[i+1:], nil
}

// ExecuteTx runs one transaction against committed state, applying its
// writes on success. Failed transactions consume gas but write nothing.
func (e *Engine) ExecuteTx(tx *ledger.Tx, height uint64) Receipt {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, ws := e.executeAgainst(newOverlay(e.state), tx, height)
	if rec.OK {
		applyWrites(e.state, ws)
	}
	e.endBlockLocked(height)
	return rec
}

// ExecuteBlock runs every transaction in order (the serial executor),
// returning one receipt per tx.
func (e *Engine) ExecuteBlock(b *ledger.Block) []Receipt {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Receipt, 0, len(b.Txs))
	for _, tx := range b.Txs {
		rec, ws := e.executeAgainst(newOverlay(e.state), tx, b.Header.Height)
		if rec.OK {
			applyWrites(e.state, ws)
		}
		out = append(out, rec)
	}
	e.endBlockLocked(b.Header.Height)
	return out
}

// endBlockLocked closes a block's execution: the memtable is sealed into a
// segment once it has grown past its size — on the commit path, inside the
// execute stage — and the block is counted for StateRoot. A seal that
// fails leaves the writes in the memtable, and the next block tries again.
// Caller holds e.mu.
func (e *Engine) endBlockLocked(height uint64) {
	_ = e.state.SealIfDue(height, nil)
	e.sinceRoot.Add(1)
}

// executeAgainst runs tx against the given overlay and returns the receipt
// plus the overlay's write set. Caller decides whether to apply.
func (e *Engine) executeAgainst(ov *overlay, tx *ledger.Tx, height uint64) (Receipt, map[string]writeOp) {
	rec := Receipt{TxID: tx.ID()}
	name, method, err := splitKind(tx.Kind)
	if err != nil {
		rec.Err = err.Error()
		return rec, nil
	}
	c, ok := e.contracts[name]
	if !ok {
		rec.Err = fmt.Sprintf("%v: %s", ErrUnknownContract, name)
		return rec, nil
	}
	ctx := &Context{
		Sender:   tx.Sender,
		TxID:     tx.ID(),
		Height:   height,
		gas:      &gasMeter{limit: e.gasLimit},
		overlay:  ov,
		contract: name,
	}
	result, err := runSafely(c, ctx, method, tx.Payload)
	rec.GasUsed = ctx.gas.used
	if err != nil {
		rec.Err = err.Error()
		return rec, nil
	}
	rec.OK = true
	rec.Result = result
	rec.Events = ctx.events
	return rec, ov.writes
}

// runSafely converts contract panics into errors so one bad contract
// cannot take down the node.
func runSafely(c Contract, ctx *Context, method string, args []byte) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("contract: %s panicked: %v", c.Name(), r)
		}
	}()
	return c.Execute(ctx, method, args)
}

func applyWrites(kv store.KV, ws map[string]writeOp) {
	// Sorted application keeps any downstream iteration deterministic.
	ks := make([]string, 0, len(ws))
	for k := range ws {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		op := ws[k]
		if op.deleted {
			// The state store's Put and Delete cannot fail.
			_ = kv.Delete(k)
			continue
		}
		_ = kv.Put(k, op.value)
	}
}

// Query runs a read-only method against committed state with no writes
// applied (any writes are discarded) and a fresh gas budget.
func (e *Engine) Query(sender keys.Address, kind string, args []byte) ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	name, method, err := splitKind(kind)
	if err != nil {
		return nil, err
	}
	c, ok := e.contracts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContract, name)
	}
	ctx := &Context{
		Sender:   sender,
		Height:   0,
		gas:      &gasMeter{limit: e.gasLimit},
		overlay:  newOverlay(e.state),
		contract: name,
	}
	return runSafely(c, ctx, method, args)
}
