package platform

import (
	"fmt"
	"os"

	"repro/internal/contract"
	"repro/internal/ledger"
	"repro/internal/store"
)

// The receipt log. Receipts are derived data — re-executing the chain
// yields them again — and nothing on the commit path reads them back, so
// they do not live in memory: record h of the log is the canonical
// encoding (contract.EncodeReceipts) of block h's receipts in transaction
// order, and a lookup goes chain index → (height, i) → read record h →
// decode receipt i. Receipts cost a node no RAM per committed transaction,
// and neither does the index that locates them: but for its newest
// entries, the chain's transaction index is sealed segments of
// txindex.log, read back one page per lookup (ledger/txindex.go).
//
// On a durable node the log is dir/receipts.log, appended without fsync:
// a machine crash may cost the newest records, never a wrong one, and
// Open refills whatever is missing by replaying from where the log ends.
// WriteCheckpoint syncs the log first, so a checkpoint never covers a
// block whose receipts could still be lost — which is what lets a
// checkpoint restore skip re-executing the blocks below it.

// receiptLogName is the receipt log's file name inside the data directory.
const receiptLogName = "receipts.log"

// receiptLog is what the platform needs of store.FileLog (durable nodes)
// and store.MemLog (in-memory ones).
type receiptLog interface {
	AppendUnsynced(rec []byte) (uint64, error)
	Get(i uint64) ([]byte, error)
	Len() uint64
	Sync() error
	Close() error
}

// openReceiptLog opens the receipt log beside a chain of the given height.
// It never fails over the log's contents: a torn or corrupt record ends
// the log there, and a log holding more records than the chain has blocks
// describes blocks this chain does not have, so none of it is trusted and
// it starts over empty. The caller replays from Len().
func openReceiptLog(path string, height uint64) (*store.FileLog, error) {
	rl, err := store.OpenFileLogTruncating(path)
	if err != nil {
		return nil, fmt.Errorf("platform: receipt log: %w", err)
	}
	if rl.Len() <= height {
		return rl, nil
	}
	if err := rl.Close(); err != nil {
		return nil, fmt.Errorf("platform: receipt log: %w", err)
	}
	if err := os.Remove(path); err != nil {
		return nil, fmt.Errorf("platform: discard receipt log: %w", err)
	}
	if rl, err = store.OpenFileLogTruncating(path); err != nil {
		return nil, fmt.Errorf("platform: receipt log: %w", err)
	}
	return rl, nil
}

// recordReceiptsLocked appends the receipts of the block at height as
// record height. A block the log already holds (replay over a log that
// reaches above the replay's start) is left alone. A log that ends below
// height lost an earlier append; appending now would put this block's
// receipts under another block's index, so the log stays short — Receipt
// answers "not found" from there on — until the next Open replays the
// gap. Caller holds p.mu.
func (p *Platform) recordReceiptsLocked(height uint64, recs []contract.Receipt) error {
	switch n := p.receipts.Len(); {
	case n > height:
		return nil
	case n < height:
		return fmt.Errorf("platform: receipts of block %d not recorded: receipt log ends at %d", height, n)
	}
	if _, err := p.receipts.AppendUnsynced(contract.EncodeReceipts(recs)); err != nil {
		return fmt.Errorf("platform: receipts of block %d not recorded: %w", height, err)
	}
	return nil
}

// Receipt returns the receipt for a committed transaction. A transaction
// the chain index does not know is "not found" without touching the log;
// so is one whose block is on the chain but not yet through the commit
// step that records its receipts. So, too, is one whose index page cannot
// be read, but that is counted
// (trustnews_ledger_txindex_read_errors_total).
func (p *Platform) Receipt(id ledger.TxID) (contract.Receipt, bool) {
	loc, ok, err := p.chain.LookupTx(id)
	if err != nil {
		p.tm.txIndexReadErrs.Inc()
	}
	if !ok {
		return contract.Receipt{}, false
	}
	raw, err := p.receipts.Get(loc.Height)
	if err != nil {
		return contract.Receipt{}, false
	}
	rec, err := contract.DecodeReceiptAt(raw, loc.Index)
	if err != nil || rec.TxID != id {
		return contract.Receipt{}, false
	}
	return rec, true
}
