package consensus

import (
	"fmt"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
)

// ChainApp is a ready-made App over a ledger chain and mempool, used by the
// platform node and by tests. Proposed blocks drain the mempool; committed
// blocks are appended to the chain and an optional hook observes them.
type ChainApp struct {
	Chain    *ledger.Chain
	Pool     *ledger.Mempool
	Proposer keys.Address
	// MaxTxs bounds the transactions per proposed block (0 = 512).
	MaxTxs int
	// Now supplies block timestamps; defaults to a fixed epoch so
	// simulations are deterministic.
	Now func() time.Time
	// OnCommit, when non-nil, observes every committed block.
	OnCommit func(*ledger.Block)
	// AllowEmpty lets the proposer emit empty blocks (heartbeats).
	AllowEmpty bool
}

var _ App = (*ChainApp)(nil)

// ProposeBlock implements App.
func (a *ChainApp) ProposeBlock(height uint64) (*ledger.Block, error) {
	if height != a.Chain.Height() {
		return nil, fmt.Errorf("consensus: propose height %d but chain at %d", height, a.Chain.Height())
	}
	max := a.MaxTxs
	if max <= 0 {
		max = 512
	}
	txs := a.Pool.Batch(max)
	if len(txs) == 0 && !a.AllowEmpty {
		return nil, nil
	}
	at := time.Unix(1562500000, 0).UTC()
	if a.Now != nil {
		at = a.Now()
	}
	return ledger.NewBlock(height, a.Chain.HeadID(), [32]byte{}, at, a.Proposer, txs), nil
}

// HasWork implements App: the pool holds a transaction ProposeBlock would
// include. A transaction behind a nonce gap is not work.
func (a *ChainApp) HasWork() bool { return len(a.Pool.Batch(1)) > 0 }

// ValidateBlock implements App with the chain's own append checks
// (Chain.Validate): height, parent, nonces and body, so a block that
// passes commits. Signatures already verified at mempool admission (or
// when this block was validated in an earlier round) are served from the
// cache and only structurally re-checked.
func (a *ChainApp) ValidateBlock(b *ledger.Block) error {
	return a.Chain.Validate(b)
}

// BlockAt implements App: block sync reads each body and the certificate
// that decided it from the chain. A block stored without a certificate
// is an error: it is not served.
func (a *ChainApp) BlockAt(height uint64) (*ledger.Block, *Commit, error) {
	b, err := a.Chain.BlockAt(height)
	if err != nil {
		return nil, nil, err
	}
	raw, err := a.Chain.CertAt(height)
	if err != nil {
		return nil, nil, err
	}
	cert, err := DecodeCommit(raw)
	return b, cert, err
}

// CommitBlock implements App: the block and its certificate go to the
// chain in one record; a nil cert (the proof-of-authority baseline)
// stores the block alone.
func (a *ChainApp) CommitBlock(b *ledger.Block, cert *Commit) error {
	var raw []byte
	if cert != nil {
		raw = EncodeCommit(cert)
	}
	if err := a.Chain.Append(b, raw); err != nil {
		return err
	}
	a.Pool.Remove(b.Txs)
	if a.OnCommit != nil {
		a.OnCommit(b)
	}
	return nil
}
