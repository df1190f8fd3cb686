package consensus

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/keys"
	"repro/internal/ledger"
)

func testCommit() *Commit {
	id := ledger.BlockID{0xc0, 0xde}
	c := &Commit{Height: 9, BlockID: id}
	for _, seed := range []string{"a", "b", "c"} {
		kp := keys.FromSeed([]byte(seed))
		v := Vote{Type: VotePrecommit, Height: 9, Round: 2, BlockID: id, Voter: kp.Address()}
		SignVote(&v, kp)
		c.Quorum = append(c.Quorum, v)
	}
	return c
}

// TestCommitCodecRoundTrip: a certificate decodes to what was encoded,
// and truncated or padded bytes are rejected.
func TestCommitCodecRoundTrip(t *testing.T) {
	c := testCommit()
	raw := EncodeCommit(c)
	got, err := DecodeCommit(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("decoded %+v, want %+v", got, c)
	}
	for name, tc := range map[string]struct {
		raw  []byte
		want error
	}{
		"empty":     {nil, ledger.ErrTruncated},
		"truncated": {raw[:len(raw)-1], ledger.ErrTruncated},
		"trailing":  {append(append([]byte(nil), raw...), 0), ledger.ErrTrailing},
	} {
		if _, err := DecodeCommit(tc.raw); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeCommit = %v, want %v", name, err, tc.want)
		}
	}
}

// FuzzDecodeCommit feeds arbitrary bytes to the certificate decoder, which
// reads them from the block log and the wire: no panic, no allocation
// beyond what the input can hold, and a certificate that decodes
// re-encodes to the same bytes.
func FuzzDecodeCommit(f *testing.F) {
	raw := EncodeCommit(testCommit())
	f.Add(raw)
	f.Add(EncodeCommit(&Commit{}))
	f.Add(raw[:len(raw)/2])
	f.Add(append(raw[:40:40], 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeCommit(raw)
		if err != nil {
			return
		}
		if len(c.Quorum) > len(raw)/minVoteSize {
			t.Fatalf("%d votes from %d bytes", len(c.Quorum), len(raw))
		}
		if !bytes.Equal(EncodeCommit(c), raw) {
			t.Fatalf("re-encode mismatch for %x", raw)
		}
	})
}
