package contract

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFormatBytesPinned pins the bytes of a receipt-log record: the sha256
// of the encoding of receipts with events and attributes, of a failure and
// of an empty block. Round-trip tests only check that an encoding decodes
// back to itself; this one fails when receipts.log's format moves.
func TestFormatBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"receipts with events and attributes", EncodeReceipts(sampleReceipts()), "b2ab164233e0d096ee51250932a32e0cca7c539aa7fa0c74e403264ce7f84b75"},
		{"no receipts", EncodeReceipts(nil), "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"},
	} {
		sum := sha256.Sum256(tc.raw)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
