// Package light implements light-client verification: a reader who does
// not run a full node can still verify that a news item, vote or fact was
// committed to the chain — addressing the paper's complaint that today
// "readers are also unable to verify which information has been verified
// and to be factual" (§I).
//
// A light client keeps only block headers (84 bytes each). Given a
// transaction and a Merkle inclusion proof from any untrusted full node,
// it checks (1) the header chain links correctly, (2) the transaction's
// leaf is included under the header's TxRoot, and (3) optionally, a BFT
// commit certificate signed by 2/3+ of the validator set finalizes the
// block — so the proof is only as trustworthy as the validator set, not
// the serving node.
package light

import (
	"errors"
	"fmt"

	"repro/internal/consensus"
	"repro/internal/ledger"
	"repro/internal/merkle"
)

// Errors returned by this package.
var (
	// ErrHeaderGap indicates a header that does not extend the chain.
	ErrHeaderGap = errors.New("light: header does not extend the chain")
	// ErrUnknownHeight indicates a proof against an unsynced height.
	ErrUnknownHeight = errors.New("light: unknown header height")
	// ErrProofMismatch indicates an inclusion proof that fails.
	ErrProofMismatch = errors.New("light: inclusion proof failed")
)

// Proof is everything a full node hands a light client to prove one
// transaction's inclusion.
type Proof struct {
	Header ledger.Header `json:"header"`
	TxRaw  []byte        `json:"txRaw"`
	Merkle merkle.Proof  `json:"merkle"`
}

// Client is a header-only light client.
type Client struct {
	headers []ledger.Header
	ids     []ledger.BlockID
}

// NewClient creates an empty light client.
func NewClient() *Client { return &Client{} }

// Height returns the number of synced headers.
func (c *Client) Height() uint64 { return uint64(len(c.headers)) }

// AddHeader appends a header after validating linkage to the current tip.
func (c *Client) AddHeader(h ledger.Header) error {
	wantHeight := uint64(len(c.headers))
	if h.Height != wantHeight {
		return fmt.Errorf("%w: height %d want %d", ErrHeaderGap, h.Height, wantHeight)
	}
	var wantPrev ledger.BlockID
	if len(c.headers) > 0 {
		wantPrev = c.ids[len(c.ids)-1]
	}
	if h.Prev != wantPrev {
		return fmt.Errorf("%w: prev %s want %s", ErrHeaderGap, h.Prev.Short(), wantPrev.Short())
	}
	blk := ledger.Block{Header: h}
	c.headers = append(c.headers, h)
	c.ids = append(c.ids, blk.ID())
	return nil
}

// SyncFrom pulls all missing headers from a full chain (in production this
// would be a network fetch; the interface is the local chain type).
func (c *Client) SyncFrom(chain *ledger.Chain) error {
	for h := c.Height(); h < chain.Height(); h++ {
		b, err := chain.BlockAt(h)
		if err != nil {
			return fmt.Errorf("light: fetch header %d: %w", h, err)
		}
		if err := c.AddHeader(b.Header); err != nil {
			return err
		}
	}
	return nil
}

// HeaderAt returns the synced header at a height.
func (c *Client) HeaderAt(height uint64) (ledger.Header, error) {
	if height >= uint64(len(c.headers)) {
		return ledger.Header{}, fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return c.headers[height], nil
}

// Verify checks an inclusion proof against the synced header chain and
// returns the proven transaction.
func (c *Client) Verify(p Proof) (*ledger.Tx, error) {
	synced, err := c.HeaderAt(p.Header.Height)
	if err != nil {
		return nil, err
	}
	// The served header must be byte-identical to the synced one (compare
	// by id, which covers every field).
	if (&ledger.Block{Header: synced}).ID() != (&ledger.Block{Header: p.Header}).ID() {
		return nil, fmt.Errorf("%w: header mismatch at height %d", ErrProofMismatch, p.Header.Height)
	}
	if err := merkle.VerifyProof(synced.TxRoot, p.TxRaw, p.Merkle); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProofMismatch, err)
	}
	tx, err := ledger.DecodeTx(p.TxRaw)
	if err != nil {
		return nil, fmt.Errorf("light: proven bytes are not a transaction: %w", err)
	}
	if err := tx.Verify(); err != nil {
		return nil, fmt.Errorf("light: proven transaction invalid: %w", err)
	}
	return tx, nil
}

// VerifyFinalized additionally checks a BFT commit certificate for the
// block, so the client trusts the validator set rather than header sync.
func (c *Client) VerifyFinalized(p Proof, cert *consensus.Commit, set *consensus.ValidatorSet) (*ledger.Tx, error) {
	tx, err := c.Verify(p)
	if err != nil {
		return nil, err
	}
	if cert.Height != p.Header.Height {
		return nil, fmt.Errorf("%w: cert height %d proof height %d", ErrProofMismatch, cert.Height, p.Header.Height)
	}
	if cert.BlockID != (&ledger.Block{Header: p.Header}).ID() {
		return nil, fmt.Errorf("%w: cert block id does not match header", ErrProofMismatch)
	}
	if err := consensus.VerifyCommit(cert, set); err != nil {
		return nil, fmt.Errorf("light: commit certificate: %w", err)
	}
	return tx, nil
}

// Prove builds an inclusion proof for a committed transaction from a full
// chain (the full-node side of the protocol).
func Prove(chain *ledger.Chain, id ledger.TxID) (Proof, error) {
	tx, loc, err := chain.FindTx(id)
	if err != nil {
		return Proof{}, err
	}
	blk, err := chain.BlockAt(loc.Height)
	if err != nil {
		return Proof{}, err
	}
	leaves := make([][]byte, len(blk.Txs))
	for i, t := range blk.Txs {
		leaves[i] = t.Encode()
	}
	tree, err := merkle.New(leaves)
	if err != nil {
		return Proof{}, fmt.Errorf("light: build tree: %w", err)
	}
	mp, err := tree.Proof(loc.Index)
	if err != nil {
		return Proof{}, fmt.Errorf("light: build proof: %w", err)
	}
	return Proof{Header: blk.Header, TxRaw: tx.Encode(), Merkle: mp}, nil
}
