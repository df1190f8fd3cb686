package ledger

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"repro/internal/store"
)

// Errors returned by chain operations.
var (
	// ErrBadHeight indicates a block whose height is not head+1.
	ErrBadHeight = errors.New("ledger: block height out of sequence")
	// ErrBadParent indicates a block whose Prev does not match the head.
	ErrBadParent = errors.New("ledger: block parent mismatch")
	// ErrBadNonce indicates a transaction with an unexpected sender nonce.
	ErrBadNonce = errors.New("ledger: bad transaction nonce")
	// ErrBlockNotFound indicates an unknown block height or id.
	ErrBlockNotFound = errors.New("ledger: block not found")
	// ErrTxNotFound indicates an unknown transaction id.
	ErrTxNotFound = errors.New("ledger: transaction not found")
)

// TxLocation records where a committed transaction lives.
type TxLocation struct {
	Height  uint64
	Index   int
	BlockID BlockID
}

// Chain is the validated, append-only block chain. It enforces height and
// parent linkage, body validity, and strictly-increasing per-sender nonces,
// and maintains hash indexes for O(1) lookups of blocks and transactions.
//
// The nonce discipline is what makes every platform action attributable and
// replay-proof: an adversary cannot re-submit someone else's signed vote.
type Chain struct {
	mu      sync.RWMutex
	log     store.Log
	byID    map[BlockID]uint64
	txIndex map[TxID]TxLocation
	nonces  map[string]uint64 // next expected nonce per sender address
	head    *Block
	// verifier is the block-verification pipeline used by Append, replay
	// and VerifyBlockBody: a parallel pool over a bounded signature cache.
	// A platform shares it with its mempool, so a signature verified at
	// admission is not verified again when its block is appended.
	verifier *Verifier
}

// NewChain creates a chain over the given block log. If the log is
// non-empty it is replayed and re-validated, so a tampered block store is
// rejected at startup.
func NewChain(log store.Log) (*Chain, error) {
	c := &Chain{
		log:      log,
		byID:     make(map[BlockID]uint64),
		txIndex:  make(map[TxID]TxLocation),
		nonces:   make(map[string]uint64),
		verifier: NewVerifier(NewSigCache(0), 0),
	}
	n := log.Len()
	for i := uint64(0); i < n; i++ {
		raw, err := log.Get(i)
		if err != nil {
			return nil, fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		b, err := DecodeBlock(raw)
		if err != nil {
			return nil, fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		if err := c.validateLinkage(b); err != nil {
			return nil, fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		if err := c.verifier.ValidateBody(b); err != nil {
			return nil, fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		c.index(b)
	}
	return c, nil
}

// NewMemChain creates an empty in-memory chain, the common test setup.
func NewMemChain() *Chain {
	c, err := NewChain(store.NewMemLog())
	if err != nil {
		// An empty MemLog cannot fail to replay.
		panic(err)
	}
	return c
}

// Height returns the number of committed blocks.
func (c *Chain) Height() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.head == nil {
		return 0
	}
	return c.head.Header.Height + 1
}

// Head returns the latest block, or nil for an empty chain.
func (c *Chain) Head() *Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head
}

// HeadID returns the id of the latest block, or the zero id when empty.
func (c *Chain) HeadID() BlockID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.head == nil {
		return BlockID{}
	}
	return c.head.ID()
}

// NextNonce returns the next expected nonce for a sender.
func (c *Chain) NextNonce(sender string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nonces[sender]
}

// Verifier returns the chain's verification pipeline.
func (c *Chain) Verifier() *Verifier { return c.verifier }

// VerifyBlockBody validates a block body through the chain's pipeline
// without appending it. Consensus proposal validation uses it so a
// proposer's transactions — already verified at mempool admission — skip
// the per-signature ed25519 work via the shared cache.
func (c *Chain) VerifyBlockBody(b *Block) error {
	return c.Verifier().ValidateBody(b)
}

func (c *Chain) validateLinkage(b *Block) error {
	var wantHeight uint64
	var wantPrev BlockID
	if c.head != nil {
		wantHeight = c.head.Header.Height + 1
		wantPrev = c.head.ID()
	}
	if b.Header.Height != wantHeight {
		return fmt.Errorf("%w: got %d want %d", ErrBadHeight, b.Header.Height, wantHeight)
	}
	if b.Header.Prev != wantPrev {
		return fmt.Errorf("%w: got %s want %s", ErrBadParent, b.Header.Prev.Short(), wantPrev.Short())
	}
	// Nonce check against a scratch copy so partially-valid blocks do not
	// mutate chain state.
	scratch := make(map[string]uint64)
	for i, t := range b.Txs {
		key := t.Sender.String()
		next, seen := scratch[key]
		if !seen {
			next = c.nonces[key]
		}
		if t.Nonce != next {
			return fmt.Errorf("%w: tx %d sender %s nonce %d want %d", ErrBadNonce, i, t.Sender.Short(), t.Nonce, next)
		}
		scratch[key] = next + 1
	}
	return nil
}

func (c *Chain) index(b *Block) {
	id := b.ID()
	c.byID[id] = b.Header.Height
	for i, t := range b.Txs {
		c.txIndex[t.ID()] = TxLocation{Height: b.Header.Height, Index: i, BlockID: id}
		key := t.Sender.String()
		c.nonces[key] = t.Nonce + 1
	}
	c.head = b
	// The block is on the chain: its transactions are verified for the last
	// time, so the signature cache stops holding their ids.
	c.verifier.Forget(b.Txs...)
}

// Append validates and commits a block.
func (c *Chain) Append(b *Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.validateLinkage(b); err != nil {
		return err
	}
	if err := c.verifier.ValidateBody(b); err != nil {
		return err
	}
	if _, err := c.log.Append(b.Encode()); err != nil {
		return fmt.Errorf("ledger: persist block %d: %w", b.Header.Height, err)
	}
	c.index(b)
	return nil
}

// BlockAt returns the block at the given height.
func (c *Chain) BlockAt(height uint64) (*Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.head == nil || height > c.head.Header.Height {
		return nil, fmt.Errorf("%w: height %d", ErrBlockNotFound, height)
	}
	raw, err := c.log.Get(height)
	if err != nil {
		return nil, fmt.Errorf("ledger: load block %d: %w", height, err)
	}
	return DecodeBlock(raw)
}

// BlockByID returns the block with the given id.
func (c *Chain) BlockByID(id BlockID) (*Block, error) {
	c.mu.RLock()
	h, ok := c.byID[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: id %s", ErrBlockNotFound, id.Short())
	}
	return c.BlockAt(h)
}

// TxLocation reports where a committed transaction lives, from the index
// alone: no block is read.
func (c *Chain) TxLocation(id TxID) (TxLocation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, ok := c.txIndex[id]
	return loc, ok
}

// FindTx returns a committed transaction and its location.
func (c *Chain) FindTx(id TxID) (*Tx, TxLocation, error) {
	loc, ok := c.TxLocation(id)
	if !ok {
		return nil, TxLocation{}, fmt.Errorf("%w: id %s", ErrTxNotFound, id.Short())
	}
	b, err := c.BlockAt(loc.Height)
	if err != nil {
		return nil, TxLocation{}, err
	}
	return b.Txs[loc.Index], loc, nil
}

// ---------------------------------------------------------------------------
// Chain index snapshots (durable-node checkpoints).
// ---------------------------------------------------------------------------

// ErrBadSnapshot indicates a chain snapshot that does not match the log.
var ErrBadSnapshot = errors.New("ledger: chain snapshot does not match log")

// chainSnapshot serializes the chain's derived indexes. Blocks are
// height-ordered ids; transaction locations reference heights, so the
// whole structure is reproducible from (and verifiable against) the log.
type chainSnapshot struct {
	Height   uint64
	BlockIDs []BlockID
	Txs      []txRef
	Nonces   map[string]uint64
}

// txRef is one committed transaction location.
type txRef struct {
	ID     TxID
	Height uint64
	Index  int
}

// SnapshotState serializes the chain's in-memory indexes (block ids,
// transaction locations, per-sender nonces) so a durable node can
// checkpoint them and reopen without re-decoding and re-validating every
// block.
func (c *Chain) SnapshotState() ([]byte, error) {
	c.mu.RLock()
	snap := chainSnapshot{Nonces: make(map[string]uint64, len(c.nonces))}
	if c.head != nil {
		snap.Height = c.head.Header.Height + 1
	}
	snap.BlockIDs = make([]BlockID, snap.Height)
	for id, h := range c.byID {
		snap.BlockIDs[h] = id
	}
	snap.Txs = make([]txRef, 0, len(c.txIndex))
	for id, loc := range c.txIndex {
		snap.Txs = append(snap.Txs, txRef{ID: id, Height: loc.Height, Index: loc.Index})
	}
	for k, v := range c.nonces {
		snap.Nonces[k] = v
	}
	c.mu.RUnlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("ledger: encode chain snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// NewChainFromSnapshot reopens a chain over a log using checkpointed
// indexes for the snapshot's prefix: only the head block of the prefix is
// decoded (and its id checked against the snapshot), then any newer log
// records — the WAL tail — are fully decoded, validated and indexed as
// usual. This makes reopen O(tail) instead of O(chain length).
//
// The snapshot is an accelerator, not a trust root: any mismatch returns
// ErrBadSnapshot and the caller should fall back to NewChain, which
// re-validates everything.
func NewChainFromSnapshot(log store.Log, snapshot []byte) (*Chain, error) {
	var snap chainSnapshot
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadSnapshot, err)
	}
	n := log.Len()
	if snap.Height > n {
		return nil, fmt.Errorf("%w: snapshot height %d beyond log %d", ErrBadSnapshot, snap.Height, n)
	}
	if uint64(len(snap.BlockIDs)) != snap.Height {
		return nil, fmt.Errorf("%w: %d block ids for height %d", ErrBadSnapshot, len(snap.BlockIDs), snap.Height)
	}
	c := &Chain{
		log:      log,
		byID:     make(map[BlockID]uint64, snap.Height),
		txIndex:  make(map[TxID]TxLocation, len(snap.Txs)),
		nonces:   make(map[string]uint64, len(snap.Nonces)),
		verifier: NewVerifier(NewSigCache(0), 0),
	}
	for h, id := range snap.BlockIDs {
		c.byID[id] = uint64(h)
	}
	for _, ref := range snap.Txs {
		if ref.Height >= snap.Height {
			return nil, fmt.Errorf("%w: tx at height %d beyond snapshot", ErrBadSnapshot, ref.Height)
		}
		c.txIndex[ref.ID] = TxLocation{Height: ref.Height, Index: ref.Index, BlockID: snap.BlockIDs[ref.Height]}
	}
	for k, v := range snap.Nonces {
		c.nonces[k] = v
	}
	// Anchor the prefix: the head block must decode and hash to the
	// snapshot's id at that height (the platform additionally verifies
	// the checkpointed state root against this block's header).
	if snap.Height > 0 {
		raw, err := log.Get(snap.Height - 1)
		if err != nil {
			return nil, fmt.Errorf("%w: head record: %v", ErrBadSnapshot, err)
		}
		head, err := DecodeBlock(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: head decode: %v", ErrBadSnapshot, err)
		}
		if head.Header.Height != snap.Height-1 || head.ID() != snap.BlockIDs[snap.Height-1] {
			return nil, fmt.Errorf("%w: head id mismatch at height %d", ErrBadSnapshot, snap.Height-1)
		}
		c.head = head
	}
	// The WAL tail gets the full treatment.
	for i := snap.Height; i < n; i++ {
		raw, err := log.Get(i)
		if err != nil {
			return nil, fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		b, err := DecodeBlock(raw)
		if err != nil {
			return nil, fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		if err := c.validateLinkage(b); err != nil {
			return nil, fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		if err := c.verifier.ValidateBody(b); err != nil {
			return nil, fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		c.index(b)
	}
	return c, nil
}

// Walk iterates committed blocks from height from (inclusive) upward,
// calling fn for each; fn returning false stops the walk. Used by the
// supply-chain graph builder and the expert miner to scan ledger history.
func (c *Chain) Walk(from uint64, fn func(*Block) bool) error {
	for h := from; ; h++ {
		b, err := c.BlockAt(h)
		if errors.Is(err, ErrBlockNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		if !fn(b) {
			return nil
		}
	}
}
