package ledger

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"repro/internal/keys"
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
// and indexes blocks by height and transactions by id (txindex.go).
//
// The nonce discipline is what makes every platform action attributable and
// replay-proof: an adversary cannot re-submit someone else's signed vote.
type Chain struct {
	mu     sync.RWMutex
	log    store.Log
	ids    []BlockID               // block id by height
	nonces map[keys.Address]uint64 // next expected nonce per sender
	head   *Block
	txs    txIndex
	// verifier is the block-verification pipeline used by Append, replay
	// and Validate: a parallel pool over a bounded signature cache.
	// A platform shares it with its mempool, so a signature verified at
	// admission is not verified again when its block is appended.
	verifier *Verifier
}

func newChain(log store.Log, idx store.SegmentLog) *Chain {
	return &Chain{
		log:      log,
		nonces:   make(map[keys.Address]uint64),
		txs:      newTxIndex(idx),
		verifier: NewVerifier(NewSigCache(0), 0),
	}
}

// NewChain creates a chain over the given block log, sealing transaction
// index segments to idx. If the block log is non-empty it is replayed and
// re-validated, so a tampered block store is rejected at startup; the
// segments idx already holds are kept as far as they fit the chain, and
// the rest of the index is rebuilt from the blocks.
func NewChain(log store.Log, idx store.SegmentLog) (*Chain, error) {
	c := newChain(log, idx)
	if err := c.replay(0, log.Len()); err != nil {
		return nil, err
	}
	if err := c.openTxIndex(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// replay decodes, validates and links blocks from..to-1 of the log.
func (c *Chain) replay(from, to uint64) error {
	for i := from; i < to; i++ {
		raw, err := c.log.Get(i)
		if err != nil {
			return fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		b, _, err := decodeRecord(raw)
		if err != nil {
			return fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		if err := c.validate(b); err != nil {
			return fmt.Errorf("ledger: replay block %d: %w", i, err)
		}
		c.link(b)
	}
	return nil
}

// NewMemChain creates an empty in-memory chain, the common test setup.
func NewMemChain() *Chain {
	c, err := NewChain(store.NewMemLog(), store.NewMemLog())
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

// NextNonce returns the next expected nonce for a sender given as its hex
// address (keys.Address.String): 0 for a sender never seen, or a string
// that is not an address.
func (c *Chain) NextNonce(sender string) uint64 {
	addr, err := keys.ParseAddress(sender)
	if err != nil {
		return 0
	}
	return c.nextNonce(addr)
}

// nextNonce is NextNonce for a parsed address.
func (c *Chain) nextNonce(sender keys.Address) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nonces[sender]
}

// Verifier returns the chain's verification pipeline.
func (c *Chain) Verifier() *Verifier { return c.verifier }

// Validate runs Append's checks on b — height, parent, per-sender nonces
// and the body through the chain's pipeline — without appending it. A
// block it accepts is one Append accepts while the head is unchanged.
// Consensus proposal validation uses it, so a block that would fail to
// commit is never prevoted, and a proposer's transactions — already
// verified at mempool admission — skip the ed25519 work via the shared
// cache.
func (c *Chain) Validate(b *Block) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.validate(b)
}

// validate is the one validation path of Append, Validate and replay.
// Caller holds c.mu.
func (c *Chain) validate(b *Block) error {
	if err := c.validateLinkage(b); err != nil {
		return err
	}
	return c.verifier.ValidateBody(b)
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
	scratch := make(map[keys.Address]uint64, len(b.Txs))
	for i, t := range b.Txs {
		next, seen := scratch[t.Sender]
		if !seen {
			next = c.nonces[t.Sender]
		}
		if t.Nonce != next {
			return fmt.Errorf("%w: tx %d sender %s nonce %d want %d", ErrBadNonce, i, t.Sender.Short(), t.Nonce, next)
		}
		scratch[t.Sender] = next + 1
	}
	return nil
}

// link makes a validated block the head: its id, its senders' nonces.
func (c *Chain) link(b *Block) {
	c.ids = append(c.ids, b.ID())
	for _, t := range b.Txs {
		c.nonces[t.Sender] = t.Nonce + 1
	}
	c.head = b
	// The block is on the chain: its transactions are verified for the last
	// time, so the signature cache stops holding their ids.
	c.verifier.Forget(b.Txs...)
}

// Append validates and commits a block and indexes its transactions in
// the index tail. cert, the encoded certificate that decided the block,
// goes in the same log record (decodeRecord); a standalone block passes
// nil. It does not seal the tail: the owner calls SealTxIndex
// after each block, so the seal is timed apart from the append.
func (c *Chain) Append(b *Block, cert []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.validate(b); err != nil {
		return err
	}
	rec := Writer{Buf: b.Encode()}
	if len(cert) > 0 {
		rec.Bytes(cert)
	}
	if _, err := c.log.Append(rec.Buf); err != nil {
		return fmt.Errorf("ledger: persist block %d: %w", b.Header.Height, err)
	}
	c.link(b)
	c.txs.add(b)
	return nil
}

// SealTxIndex seals the transaction-index tail into a segment of the index
// log once the tail has crossed its threshold; otherwise it does nothing.
// Call it after each Append: a chain whose owner never calls it keeps its
// whole index in memory. On error the entries stay in the tail, where
// lookups still find them, and the next call tries again.
func (c *Chain) SealTxIndex() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head == nil {
		return nil
	}
	return c.txs.seal(c.head.Header.Height, c.ids[c.head.Header.Height])
}

// TxIndexStats reports the transaction index's size.
func (c *Chain) TxIndexStats() TxIndexStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := c.txs.Stats()
	return TxIndexStats{Memory: st.Memory, Sealed: st.Sealed, Rebuilt: c.txs.rebuilt}
}

// BlockAt returns the block at the given height.
func (c *Chain) BlockAt(height uint64) (*Block, error) {
	b, _, err := c.recordAt(height)
	return b, err
}

// CertAt returns the encoded commit certificate stored with the block at
// the given height: nil for a block stored without one (a standalone
// block, or one written before blocks were stored with certificates).
func (c *Chain) CertAt(height uint64) ([]byte, error) {
	_, cert, err := c.recordAt(height)
	return cert, err
}

// recordAt reads and decodes the log record of the given height.
func (c *Chain) recordAt(height uint64) (*Block, []byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.head == nil || height > c.head.Header.Height {
		return nil, nil, fmt.Errorf("%w: height %d", ErrBlockNotFound, height)
	}
	raw, err := c.log.Get(height)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: load block %d: %w", height, err)
	}
	return decodeRecord(raw)
}

// BlockByID returns the block with the given id. It scans the block ids
// from the head down: no serving path looks blocks up by id.
func (c *Chain) BlockByID(id BlockID) (*Block, error) {
	c.mu.RLock()
	h := len(c.ids) - 1
	for h >= 0 && c.ids[h] != id {
		h--
	}
	c.mu.RUnlock()
	if h < 0 {
		return nil, fmt.Errorf("%w: id %s", ErrBlockNotFound, id.Short())
	}
	return c.BlockAt(uint64(h))
}

// TxLocation reports where a committed transaction lives, from the index
// alone: no block is read, and at most one index page. A page that cannot
// be read answers "not found"; LookupTx tells the two apart.
func (c *Chain) TxLocation(id TxID) (TxLocation, bool) {
	loc, ok, _ := c.LookupTx(id)
	return loc, ok
}

// LookupTx is TxLocation with the index's read errors: when the index page
// that could hold id cannot be read or is malformed, it returns that error
// instead of "not found".
func (c *Chain) LookupTx(id TxID) (TxLocation, bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pos, ok, err := c.txs.lookup(id)
	if err != nil {
		return TxLocation{}, false, err
	}
	if !ok || pos.height >= uint64(len(c.ids)) {
		return TxLocation{}, false, nil
	}
	return TxLocation{Height: pos.height, Index: int(pos.index), BlockID: c.ids[pos.height]}, true, nil
}

// FindTx returns a committed transaction and its location. An index page
// that cannot be read is an error other than ErrTxNotFound.
func (c *Chain) FindTx(id TxID) (*Tx, TxLocation, error) {
	loc, ok, err := c.LookupTx(id)
	if err != nil {
		return nil, TxLocation{}, fmt.Errorf("ledger: look up tx %s: %w", id.Short(), err)
	}
	if !ok {
		return nil, TxLocation{}, fmt.Errorf("%w: id %s", ErrTxNotFound, id.Short())
	}
	b, err := c.BlockAt(loc.Height)
	if err != nil {
		return nil, TxLocation{}, err
	}
	// The index is read back from disk: check that it points at the tx.
	if loc.Index >= len(b.Txs) || b.Txs[loc.Index].ID() != id {
		return nil, TxLocation{}, fmt.Errorf("%w: id %s: index points at block %d tx %d", ErrTxNotFound, id.Short(), loc.Height, loc.Index)
	}
	return b.Txs[loc.Index], loc, nil
}

// ---------------------------------------------------------------------------
// Chain index snapshots (durable-node checkpoints).
// ---------------------------------------------------------------------------

// ErrBadSnapshot indicates a chain snapshot that does not match the log.
var ErrBadSnapshot = errors.New("ledger: chain snapshot does not match log")

// chainSnapshot serializes the chain's block ids, height-ordered, and
// per-sender nonces — everything reproducible from (and verifiable
// against) the block log. The transaction index is not in it: its sealed
// segments are in the index log, which open checks against the block ids,
// and its tail is read back from the blocks above them. A snapshot written
// when it listed every transaction location decodes with that field
// dropped.
type chainSnapshot struct {
	Height   uint64
	BlockIDs []BlockID
	Nonces   map[string]uint64
}

// SnapshotState serializes the chain's in-memory indexes (block ids,
// per-sender nonces) so a durable node can checkpoint them and reopen
// without re-decoding and re-validating every block.
func (c *Chain) SnapshotState() ([]byte, error) {
	c.mu.RLock()
	snap := chainSnapshot{
		Height:   uint64(len(c.ids)),
		BlockIDs: append([]BlockID(nil), c.ids...),
		Nonces:   make(map[string]uint64, len(c.nonces)),
	}
	for k, v := range c.nonces {
		snap.Nonces[k.String()] = v
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
// usual. This makes reopen O(tail) instead of O(chain length). The
// transaction index keeps the segments idx holds for this chain and reads
// the rest from the blocks, as NewChain does.
//
// The snapshot is an accelerator, not a trust root: any mismatch returns
// ErrBadSnapshot and the caller should fall back to NewChain, which
// re-validates everything.
func NewChainFromSnapshot(log store.Log, idx store.SegmentLog, snapshot []byte) (*Chain, error) {
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
	c := newChain(log, idx)
	c.ids = snap.BlockIDs
	for k, v := range snap.Nonces {
		addr, err := keys.ParseAddress(k)
		if err != nil {
			return nil, fmt.Errorf("%w: nonce of %v", ErrBadSnapshot, err)
		}
		c.nonces[addr] = v
	}
	// Anchor the prefix: the head block must decode and hash to the
	// snapshot's id at that height (the platform additionally verifies
	// the checkpointed state root against this block's header).
	if snap.Height > 0 {
		raw, err := log.Get(snap.Height - 1)
		if err != nil {
			return nil, fmt.Errorf("%w: head record: %v", ErrBadSnapshot, err)
		}
		head, _, err := decodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: head decode: %v", ErrBadSnapshot, err)
		}
		if head.Header.Height != snap.Height-1 || head.ID() != snap.BlockIDs[snap.Height-1] {
			return nil, fmt.Errorf("%w: head id mismatch at height %d", ErrBadSnapshot, snap.Height-1)
		}
		c.head = head
	}
	// The WAL tail gets the full treatment.
	if err := c.replay(snap.Height, n); err != nil {
		return nil, err
	}
	if err := c.openTxIndex(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// openTxIndex brings the transaction index of a chain whose blocks are
// loaded up to its height. It keeps the index log's segments as long as
// they chain from height 0 — a merge taking the place of the segments it
// merged — and each ends on a block of this chain (cutting the log at the
// first that does not), then indexes the blocks above them from the log,
// sealing as the tail fills exactly as live appends would. With an intact
// index log that is the tail: under txIndexSealAt entries plus one block.
func (c *Chain) openTxIndex() error {
	height := uint64(len(c.ids))
	from, err := c.txs.Recover(func(from, to uint64, meta []byte) bool {
		return to < height && len(meta) == len(BlockID{}) && BlockID(meta) == c.ids[to]
	})
	if err != nil {
		return fmt.Errorf("ledger: open tx index: %w", err)
	}
	return c.indexBlocks(from, height)
}

// indexBlocks adds the transactions of blocks from..to-1 to the index,
// reading them from the block log. They were validated when the chain
// took them; the header id and transaction root are checked again so that
// a log altered since cannot put a wrong entry into the index.
func (c *Chain) indexBlocks(from, to uint64) error {
	for h := from; h < to; h++ {
		raw, err := c.log.Get(h)
		if err != nil {
			return fmt.Errorf("ledger: index block %d: %w", h, err)
		}
		b, _, err := decodeRecord(raw)
		if err != nil {
			return fmt.Errorf("ledger: index block %d: %w", h, err)
		}
		if b.ID() != c.ids[h] || TxRoot(b.Txs) != b.Header.TxRoot {
			return fmt.Errorf("ledger: index block %d: block does not match the chain", h)
		}
		c.txs.add(b)
		if err := c.sealAtOpen(h); err != nil {
			return err
		}
	}
	return nil
}

// sealAtOpen seals the tail if it is due after block h was indexed while
// the chain opens, counting the segment as rebuilt when the index log
// should have held it already.
func (c *Chain) sealAtOpen(h uint64) error {
	if !c.txs.Due() {
		return nil
	}
	if err := c.txs.seal(h, c.ids[h]); err != nil {
		return err
	}
	c.txs.rebuilt++
	return nil
}

// Walk iterates committed blocks from height from (inclusive) upward,
// calling fn for each; fn returning false stops the walk. Used by replay
// and by tools that scan ledger history.
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
