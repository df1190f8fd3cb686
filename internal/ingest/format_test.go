package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFormatBytesPinned pins the bytes of the queue WAL's three record
// kinds. FuzzQueueWAL only checks that a record decodes back to itself;
// this test fails when ingest.wal's format moves.
func TestFormatBytesPinned(t *testing.T) {
	art := &Article{Source: "wire", Topic: "econ", Text: "senate passes budget"}
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"enqueue", encodeRecord(opEnqueue, 42, art), "57c938c6361b59dc140e217c48f118a9adc4347633eb20e28d6b2b1fc949258e"},
		{"ack", encodeRecord(opAck, 42, nil), "e50ed2b73f8ae1a0098b39520bf8988351d937d61d2657a11d49cf83c65b6e4f"},
		{"dead", encodeRecord(opDead, 1<<40, nil), "d368004648d72a472715ac5c77cdb15d9709dcf936280d9527bacc429b355580"},
	} {
		sum := sha256.Sum256(tc.raw)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
