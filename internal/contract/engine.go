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

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/store"
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
	state     *store.MemKV
	gasLimit  uint64

	// rootMu guards trie, the authenticated image of state that StateRoot
	// and StateProof bring up to date from the store's change feed. It is
	// apart from mu so a root never makes queries wait.
	rootMu sync.Mutex
	trie   *merkle.Trie
}

// StateRootScheme versions how StateRoot commits to the state. A
// checkpoint records the scheme its StateHash was computed under, and one
// from another scheme is not restored (store.Checkpoint.RootScheme).
//
//	0  sorted key||0||value leaves under merkle.Root, re-hashed in full
//	1  merkle.Trie over the state keys
const StateRootScheme = 1

// NewEngine creates an engine over a fresh in-memory state.
func NewEngine() *Engine {
	return &Engine{
		contracts: make(map[string]Contract),
		state:     store.NewMemKV(),
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

// StateSnapshot returns a deep copy of the committed contract state, the
// engine's contribution to a durable-node checkpoint.
func (e *Engine) StateSnapshot() (map[string][]byte, error) {
	return e.state.Snapshot()
}

// RestoreState replaces the committed contract state with a snapshot
// (checkpoint restore; the caller re-verifies the state root afterward).
func (e *Engine) RestoreState(snap map[string][]byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state.Restore(snap)
}

// StateRoot returns the commitment to the committed state that block
// headers carry: the root of a merkle.Trie over the state's keys (the
// zero hash for an empty state). Only the keys written since the last
// call are re-hashed, so the cost follows the write set, not the state.
// The error is always nil; the signature predates the trie.
func (e *Engine) StateRoot() (merkle.Hash, error) {
	e.rootMu.Lock()
	defer e.rootMu.Unlock()
	e.syncTrieLocked()
	return e.trie.Root(), nil
}

// StateProof returns key's committed value with the proof that it sits
// under the current StateRoot (merkle.VerifyTrieProof checks it).
func (e *Engine) StateProof(key string) ([]byte, merkle.TrieProof, error) {
	e.rootMu.Lock()
	defer e.rootMu.Unlock()
	e.syncTrieLocked()
	val, err := e.state.Get(key)
	if err != nil {
		return nil, merkle.TrieProof{}, err
	}
	proof, err := e.trie.Prove(key)
	return val, proof, err
}

// syncTrieLocked folds the store's change feed into the trie, starting
// over from an empty one when the store hands over everything (after
// RestoreState, or a write set covering most of the state). Caller
// holds rootMu.
func (e *Engine) syncTrieLocked() {
	entries, all := e.state.DrainDirty()
	if all {
		e.trie = merkle.NewTrie()
	}
	for _, w := range entries {
		if w.Live {
			e.trie.Put(w.Key, w.Val)
		} else {
			e.trie.Delete(w.Key)
		}
	}
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
	return out
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
			// MemKV.Delete cannot fail.
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
