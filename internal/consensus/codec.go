package consensus

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/transport"
)

// The codec of proposals, votes and commit certificates, for the wire
// frames and the block log (a certificate is stored after the block it
// decided). A vote's fields before its signature are the bytes it signs.

const (
	// voteFieldsLen is the length of a vote's signed fields, and
	// minVoteSize that of a vote with an empty signature.
	voteFieldsLen = 1 + 8 + 8 + len(ledger.BlockID{}) + keys.AddressSize
	minVoteSize   = voteFieldsLen + 4
	// maxSig bounds a signature; ed25519 signatures are 64 bytes.
	maxSig = 256
)

// WriteProposal writes p with its block and proof-of-lock votes.
func WriteProposal(w *ledger.Writer, p *Proposal) {
	w.U64(p.Height)
	w.I64(int64(p.Round))
	w.I64(int64(p.POLRound))
	w.Bytes(p.Block.Encode())
	w.Raw(p.Proposer[:])
	w.Bytes(p.Sig)
	w.U32(uint32(len(p.POLVotes)))
	for i := range p.POLVotes {
		WriteVote(w, &p.POLVotes[i])
	}
}

// ReadProposal reads a proposal written by WriteProposal.
func ReadProposal(r *ledger.Reader) (*Proposal, error) {
	p := &Proposal{Height: r.U64(), Round: r.Int(-1, 1<<31), POLRound: r.Int(-1, 1<<31)}
	raw := r.Bytes(transport.MaxFrame)
	if r.Err() != nil {
		return nil, r.Err()
	}
	b, err := ledger.DecodeBlock(raw)
	if err != nil {
		return nil, fmt.Errorf("consensus: proposal block: %w", err)
	}
	p.Block = b
	r.Raw(p.Proposer[:])
	p.Sig = r.Bytes(maxSig)
	for n := r.Count(minVoteSize); n > 0 && r.Err() == nil; n-- {
		p.POLVotes = append(p.POLVotes, ReadVote(r))
	}
	return p, r.Err()
}

func writeVoteFields(w *ledger.Writer, v *Vote) {
	w.U8(byte(v.Type))
	w.U64(v.Height)
	w.I64(int64(v.Round))
	w.Raw(v.BlockID[:])
	w.Raw(v.Voter[:])
}

// WriteVote writes v.
func WriteVote(w *ledger.Writer, v *Vote) {
	writeVoteFields(w, v)
	w.Bytes(v.Sig)
}

// ReadVote reads a vote written by WriteVote. A round outside [-1, 2^31]
// (-1 is the proof-of-lock sentinel) is malformed.
func ReadVote(r *ledger.Reader) Vote {
	v := Vote{Type: VoteType(r.U8()), Height: r.U64(), Round: r.Int(-1, 1<<31)}
	r.Raw(v.BlockID[:])
	r.Raw(v.Voter[:])
	v.Sig = r.Bytes(maxSig)
	return v
}

// WriteCommit writes a commit certificate.
func WriteCommit(w *ledger.Writer, c *Commit) {
	w.U64(c.Height)
	w.Raw(c.BlockID[:])
	w.U32(uint32(len(c.Quorum)))
	for i := range c.Quorum {
		WriteVote(w, &c.Quorum[i])
	}
}

// ReadCommit reads a commit certificate written by WriteCommit. It checks
// the encoding only; VerifyCommit checks the votes.
func ReadCommit(r *ledger.Reader) *Commit {
	c := &Commit{Height: r.U64()}
	r.Raw(c.BlockID[:])
	for n := r.Count(minVoteSize); n > 0 && r.Err() == nil; n-- {
		c.Quorum = append(c.Quorum, ReadVote(r))
	}
	return c
}

// EncodeCommit serializes a commit certificate, as the block log stores it.
func EncodeCommit(c *Commit) []byte {
	var w ledger.Writer
	WriteCommit(&w, c)
	return w.Buf
}

// DecodeCommit parses bytes written by EncodeCommit, all of them.
func DecodeCommit(raw []byte) (*Commit, error) {
	r := ledger.NewReader(raw)
	c := ReadCommit(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
