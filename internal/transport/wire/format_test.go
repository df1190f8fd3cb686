package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFormatBytesPinned pins the frame body of every message testMessages
// builds, one or more per wire kind. TestRoundTripByteIdentity only checks
// that a frame decodes back to itself; this test fails when a frame's
// bytes move, which Version must then announce.
func TestFormatBytesPinned(t *testing.T) {
	want := []string{
		"aee22aaa4fcf17e39498368bad187a908ee3d76d67810f7c5f5dd2736300705e", // proposal with proof-of-lock votes
		"d5c109564f49d76f8f506bb26f5e05967471c195343d1ac2a7f406a2afaf6a59", // proposal of an empty block
		"25206779481f53964d512a93705efdcb23d3bec2239099784ee90f4e96f7a194", // vote
		"071ad7827ec559bf83417983a34fe98ffccfe61e20d51b7559709556f7e64601", // commit
		"9a9f025bc776f0d01645f2a9038d236b5eba674b7d5bc5026bc8ce9db89788e9", // sync request
		"8a6a2eeada39a5b0c0ff7b720de81d8a3838e5759243e8a666ec72e46f781ec4", // sync blocks, three
		"e55f95c716d8b8557e62d602adc4b279278756ec894f6e006d7c51584c4eaf23", // sync blocks, one
		"dabae65bf10a5ced37d9b88a02a3fbc78501076f0294f3dd9f37f98946eebd83", // manifest request
		"e2f3bd54a9475483bf2372f0b24d7e821d8cb5345353d03c71ea9c5e511121ff", // manifest found
		"8862373344c960445d57711f965fc326a07a99d93f84bcf48435e086711250e4", // manifest not found
		"dd29b5e2d5d032fe1932bd769fe960ca8e87260b1ac390db229f0014aaae113f", // chunk request
		"394e0a6b707138fd0b4ca27e187c4fa3186e8e50ca8e8cf5e4d3492fb6f478db", // chunk response
		"ac0df3a4f5ab803dd1dafd1590abbe325e097b9a3c01a4511b1a295f0f2e9f5d", // mempool tx
	}
	msgs := testMessages()
	if len(msgs) != len(want) {
		t.Fatalf("%d messages, %d pinned", len(msgs), len(want))
	}
	var c Codec
	for i, m := range msgs {
		raw, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%d %s: %v", i, m.Kind, err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want[i] {
			t.Errorf("%d %s: sha256 %s, want %s", i, m.Kind, got, want[i])
		}
	}
}
