package consensus

import (
	"encoding/binary"
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
func WriteProposal(w *transport.Writer, p *Proposal) {
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
func ReadProposal(r *transport.Reader) (*Proposal, error) {
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

func appendVoteFields(dst []byte, v *Vote) []byte {
	dst = append(dst, byte(v.Type))
	dst = binary.BigEndian.AppendUint64(dst, v.Height)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(v.Round)))
	dst = append(dst, v.BlockID[:]...)
	return append(dst, v.Voter[:]...)
}

// WriteVote writes v.
func WriteVote(w *transport.Writer, v *Vote) {
	w.Buf = appendVoteFields(w.Buf, v)
	w.Bytes(v.Sig)
}

// ReadVote reads a vote written by WriteVote. A round outside [-1, 2^31]
// (-1 is the proof-of-lock sentinel) is malformed.
func ReadVote(r *transport.Reader) Vote {
	v := Vote{Type: VoteType(r.U8()), Height: r.U64(), Round: r.Int(-1, 1<<31)}
	r.Raw(v.BlockID[:])
	r.Raw(v.Voter[:])
	v.Sig = r.Bytes(maxSig)
	return v
}

// WriteCommit writes a commit certificate.
func WriteCommit(w *transport.Writer, c *Commit) {
	w.U64(c.Height)
	w.Raw(c.BlockID[:])
	w.U32(uint32(len(c.Quorum)))
	for i := range c.Quorum {
		WriteVote(w, &c.Quorum[i])
	}
}

// ReadCommit reads a commit certificate written by WriteCommit. It checks
// the encoding only; VerifyCommit checks the votes.
func ReadCommit(r *transport.Reader) *Commit {
	c := &Commit{Height: r.U64()}
	r.Raw(c.BlockID[:])
	for n := r.Count(minVoteSize); n > 0 && r.Err() == nil; n-- {
		c.Quorum = append(c.Quorum, ReadVote(r))
	}
	return c
}

// EncodeCommit serializes a commit certificate, as the block log stores it.
func EncodeCommit(c *Commit) []byte {
	var w transport.Writer
	WriteCommit(&w, c)
	return w.Buf
}

// DecodeCommit parses bytes written by EncodeCommit, all of them.
func DecodeCommit(raw []byte) (*Commit, error) {
	r := transport.NewReader(raw)
	c := ReadCommit(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}
