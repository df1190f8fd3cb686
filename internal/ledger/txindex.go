package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// The transaction index maps every committed transaction id to its block
// height and position. A chain answers TxLocation for every transaction it
// ever committed, and an answer never changes once given, so the index
// need not stay in memory: it is a store.LSM over the index log, keyed by
// tx id, whose values are uvarint height | uvarint index.
//
// The newest entries — fewer than txIndexSealAt, plus the block that
// crosses the count — are the LSM's memtable, the tail. At that block
// boundary the tail is sealed as one segment of the index log, whose meta
// is the id of its last block: that is how Open tells a segment of this
// chain from a stale one. Segments merge in the background, so a lookup
// checks the tail, then the blooms of logarithmically many segments, and
// reads one page with one pread. The log is read with pread rather than
// mapped: mapped pages count in a process's resident set, and the point is
// to keep history out of it.

// txIndexSealAt is the tail size whose crossing seals the tail. Only tests
// change it, to seal often without committing thousands of transactions.
var txIndexSealAt = 4096

// txPos is where a transaction sits: block height and index in the block.
type txPos struct {
	height uint64
	index  uint32
}

// errBadIndexEntry marks an index value that is not a height and index.
var errBadIndexEntry = errors.New("ledger: malformed tx index entry")

// TxIndexStats describes the transaction index.
type TxIndexStats struct {
	// Memory is the number of entries in the in-memory tail.
	Memory int
	// Sealed is the number of entries in sealed segments.
	Sealed int
	// Rebuilt is the number of segments the chain's open wrote again from
	// chain.log because the index log did not hold them (0 when the index
	// log was intact).
	Rebuilt int
}

// txIndex is the LSM plus what the chain's open rebuilt.
type txIndex struct {
	*store.LSM
	rebuilt int
}

func newTxIndex(idx store.SegmentLog) txIndex {
	return txIndex{LSM: store.NewLSM(idx, store.LSMConfig{SealEntries: txIndexSealAt})}
}

func (x *txIndex) add(b *Block) {
	var val [2 * binary.MaxVarintLen64]byte
	for i, t := range b.Txs {
		id := t.ID()
		n := binary.PutUvarint(val[:], b.Header.Height)
		n += binary.PutUvarint(val[n:], uint64(i))
		_ = x.Put(string(id[:]), val[:n]) // Put cannot fail
	}
}

// lookup finds id in the tail or a sealed segment. An error means a
// segment page could not be read or is malformed.
func (x *txIndex) lookup(id TxID) (txPos, bool, error) {
	v, ok, err := x.Lookup(string(id[:]))
	if err != nil || !ok {
		return txPos{}, false, err
	}
	height, n := binary.Uvarint(v)
	index, m := binary.Uvarint(v[max(n, 0):])
	if n <= 0 || m <= 0 || n+m != len(v) || index > math.MaxUint32 {
		return txPos{}, false, fmt.Errorf("%w: %x", errBadIndexEntry, v)
	}
	return txPos{height: height, index: uint32(index)}, true, nil
}

// seal seals the tail once it has crossed txIndexSealAt, as a segment
// ending with block to, whose id is lastID.
func (x *txIndex) seal(to uint64, lastID BlockID) error {
	if err := x.SealIfDue(to, lastID[:]); err != nil {
		return fmt.Errorf("ledger: seal tx index: %w", err)
	}
	return nil
}

// Instrument registers the transaction index's store series
// (trustnews_store_segments{log="txindex"} and its merges) on reg.
func (c *Chain) Instrument(reg *telemetry.Registry) { c.txs.Instrument(reg, "txindex") }

// ReclaimTxIndex rewrites the index log without the records merges left
// dead, once they outweigh the live ones.
func (c *Chain) ReclaimTxIndex() error {
	_, err := c.txs.Reclaim()
	return err
}

// Close stops the transaction index's background merges, waiting for one
// in flight. The chain's logs stay open: their owner closes them.
func (c *Chain) Close() error { return c.txs.Close() }
