package light

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
)

var testTime = time.Date(2019, 7, 8, 12, 0, 0, 0, time.UTC)

// buildChain commits n blocks of small transactions and returns the chain
// plus every tx.
func buildChain(t testing.TB, n int) (*ledger.Chain, []*ledger.Tx) {
	t.Helper()
	chain := ledger.NewMemChain()
	alice := keys.FromSeed([]byte("alice"))
	var all []*ledger.Tx
	nonce := uint64(0)
	for b := 0; b < n; b++ {
		var txs []*ledger.Tx
		for i := 0; i < 3; i++ {
			tx, err := ledger.NewTx(alice, nonce, "news.publish", []byte("item-"+strconv.Itoa(b)+"-"+strconv.Itoa(i)))
			if err != nil {
				t.Fatal(err)
			}
			nonce++
			txs = append(txs, tx)
			all = append(all, tx)
		}
		blk := ledger.NewBlock(chain.Height(), chain.HeadID(), [32]byte{}, testTime, alice.Address(), txs)
		if err := chain.Append(blk, nil); err != nil {
			t.Fatal(err)
		}
	}
	return chain, all
}

func TestSyncAndVerifyEveryTx(t *testing.T) {
	chain, txs := buildChain(t, 5)
	c := NewClient()
	if err := c.SyncFrom(chain); err != nil {
		t.Fatal(err)
	}
	if c.Height() != 5 {
		t.Fatalf("height=%d", c.Height())
	}
	for _, tx := range txs {
		p, err := Prove(chain, tx.ID())
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Verify(p)
		if err != nil {
			t.Fatalf("verify %s: %v", tx.ID().Short(), err)
		}
		if got.ID() != tx.ID() {
			t.Fatal("proved a different transaction")
		}
	}
}

func TestVerifyRejectsTamperedTx(t *testing.T) {
	chain, txs := buildChain(t, 2)
	c := NewClient()
	c.SyncFrom(chain)
	p, err := Prove(chain, txs[0].ID())
	if err != nil {
		t.Fatal(err)
	}
	p.TxRaw = append([]byte{}, p.TxRaw...)
	p.TxRaw[40] ^= 1
	if _, err := c.Verify(p); !errors.Is(err, ErrProofMismatch) {
		t.Fatalf("want ErrProofMismatch, got %v", err)
	}
}

func TestVerifyRejectsForgedHeader(t *testing.T) {
	chain, txs := buildChain(t, 2)
	c := NewClient()
	c.SyncFrom(chain)
	p, _ := Prove(chain, txs[0].ID())
	p.Header.StateRoot[0] ^= 1 // forged field changes the header id
	if _, err := c.Verify(p); !errors.Is(err, ErrProofMismatch) {
		t.Fatalf("want ErrProofMismatch, got %v", err)
	}
}

func TestVerifyRejectsUnsyncedHeight(t *testing.T) {
	chain, txs := buildChain(t, 3)
	c := NewClient()
	// Sync only the first block.
	b0, _ := chain.BlockAt(0)
	if err := c.AddHeader(b0.Header); err != nil {
		t.Fatal(err)
	}
	p, _ := Prove(chain, txs[len(txs)-1].ID())
	if _, err := c.Verify(p); !errors.Is(err, ErrUnknownHeight) {
		t.Fatalf("want ErrUnknownHeight, got %v", err)
	}
}

func TestAddHeaderLinkageEnforced(t *testing.T) {
	chain, _ := buildChain(t, 3)
	c := NewClient()
	b1, _ := chain.BlockAt(1)
	if err := c.AddHeader(b1.Header); !errors.Is(err, ErrHeaderGap) {
		t.Fatalf("want ErrHeaderGap for skipped height, got %v", err)
	}
	b0, _ := chain.BlockAt(0)
	if err := c.AddHeader(b0.Header); err != nil {
		t.Fatal(err)
	}
	forged := b1.Header
	forged.Prev = ledger.BlockID{0xde, 0xad}
	if err := c.AddHeader(forged); !errors.Is(err, ErrHeaderGap) {
		t.Fatalf("want ErrHeaderGap for broken prev, got %v", err)
	}
}

func TestProveUnknownTx(t *testing.T) {
	chain, _ := buildChain(t, 1)
	if _, err := Prove(chain, ledger.TxID{0xff}); err == nil {
		t.Fatal("want error for unknown tx")
	}
}

func TestVerifyFinalizedWithCommitCert(t *testing.T) {
	// Build a validator set, a block, and a genuine 3-of-4 precommit
	// certificate; the light client accepts it and rejects forgeries.
	kps := make([]*keys.KeyPair, 4)
	vals := make([]consensus.Validator, 4)
	for i := range kps {
		kps[i] = keys.FromSeed([]byte("validator-" + strconv.Itoa(i)))
		vals[i] = consensus.Validator{
			ID:   simnet.NodeID("v" + strconv.Itoa(i)),
			Addr: kps[i].Address(), Pub: kps[i].Public(), Power: 1,
		}
	}
	set, err := consensus.NewValidatorSet(vals)
	if err != nil {
		t.Fatal(err)
	}

	chain, txs := buildChain(t, 1)
	blk, _ := chain.BlockAt(0)
	id := blk.ID()
	mkVotes := func(id ledger.BlockID, voters ...int) []consensus.Vote {
		var out []consensus.Vote
		for _, i := range voters {
			v := consensus.Vote{Type: consensus.VotePrecommit, Height: 0, Round: 0, BlockID: id, Voter: kps[i].Address()}
			consensus.SignVote(&v, kps[i])
			out = append(out, v)
		}
		return out
	}

	c := NewClient()
	c.SyncFrom(chain)
	p, err := Prove(chain, txs[0].ID())
	if err != nil {
		t.Fatal(err)
	}
	// The certificate names the block by id only; the proof's header must
	// hash to that id and the votes must sign it.
	other := ledger.BlockID{0xbd}
	cases := []struct {
		name string
		cert *consensus.Commit
		ok   bool
	}{
		{"3-of-4 quorum over the header's id", &consensus.Commit{Height: 0, BlockID: id, Quorum: mkVotes(id, 0, 1, 2)}, true},
		{"weak quorum", &consensus.Commit{Height: 0, BlockID: id, Quorum: mkVotes(id, 0, 1)}, false},
		{"wrong height", &consensus.Commit{Height: 1, BlockID: id, Quorum: mkVotes(id, 0, 1, 2)}, false},
		{"valid quorum for another block", &consensus.Commit{Height: 0, BlockID: other, Quorum: mkVotes(other, 0, 1, 2)}, false},
		{"header's id over votes for another block", &consensus.Commit{Height: 0, BlockID: id, Quorum: mkVotes(other, 0, 1, 2)}, false},
	}
	for _, tc := range cases {
		if _, err := c.VerifyFinalized(p, tc.cert, set); (err == nil) != tc.ok {
			t.Errorf("%s: VerifyFinalized = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
