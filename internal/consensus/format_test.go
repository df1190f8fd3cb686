package consensus

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
)

// TestFormatBytesPinned pins the bytes consensus signs and stores: a vote's
// and a proposal's sign bytes and a certificate's encoding, as chain.log
// keeps it. A change to any of them invalidates every signature and
// certificate already written.
func TestFormatBytesPinned(t *testing.T) {
	kp := keys.FromSeed([]byte("pin-proposer"))
	tx, err := ledger.NewTx(kp, 0, "news.publish", []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	block := ledger.NewBlock(3, ledger.BlockID{7}, merkle.Hash{9}, time.Unix(1700000000, 0), kp.Address(), []*ledger.Tx{tx})
	vote := Vote{Type: VotePrevote, Height: 3, Round: 1, BlockID: block.ID(), Voter: kp.Address()}
	nilVote := Vote{Type: VotePrecommit, Height: 3, Round: -1, Voter: kp.Address()}
	prop := &Proposal{Height: 3, Round: 2, POLRound: -1, Block: block, Proposer: kp.Address()}
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"vote sign bytes", voteSignBytes(&vote), "d908a01e1bfba030cfa65cc7d9b4ae1029bd7844ea95c7cd5f6b52025772986a"},
		{"nil vote sign bytes", voteSignBytes(&nilVote), "87fd4d1f1d38c14898e83bcbd87376c9f4669cad2f3df8a592e70aae6ec64510"},
		{"proposal sign bytes", proposalSignBytes(prop), "96ad9e368b2b49d364302c5753cb54833b211e364f747e6f14992a38148a88d2"},
		{"EncodeCommit", EncodeCommit(testCommit()), "343056c79c15024a26e2411446068c2dad3dce9bf51314c496d201e287dbd1a3"},
	} {
		sum := sha256.Sum256(tc.raw)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
