package consensus_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// TestSyncAnswersFitTheFrame: a laggard's backlog of blocks near the
// mempool's payload cap is larger than transport.MaxFrame. Every sync
// answer a peer sends encodes through the wire codec within the frame,
// more than one is needed, and the laggard converges on the same chain.
func TestSyncAnswersFitTheFrame(t *testing.T) {
	const (
		txs     = 128
		perTx   = 60 << 10 // under ledger.MaxMempoolPayloadBytes
		perBlk  = 8
		heights = 200
	)
	c, err := consensus.NewCluster(4, 47, consensus.DefaultTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range c.Apps {
		app.MaxTxs = perBlk
	}
	var codec wire.Codec
	var answers, bulky int
	c.Net.SetSizer(func(m simnet.Message) int {
		if m.Kind != consensus.KindSyncBlocks {
			return 0
		}
		raw, err := codec.Encode(m)
		if err != nil {
			t.Errorf("sync answer does not encode: %v", err)
			return 0
		}
		answers++
		if len(raw) > transport.MaxFrame/2 {
			bulky++
		}
		return len(raw)
	})
	sender := keys.FromSeed([]byte("bulk-client"))
	for i := 0; i < txs; i++ {
		tx, err := ledger.NewTx(sender, uint64(i), "news.publish", bytes.Repeat([]byte{byte(i)}, perTx))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SubmitAll(tx); err != nil {
			t.Fatal(err)
		}
	}
	laggard := c.Set.Members()[3].ID
	c.Net.Detach(laggard)
	c.Start()
	c.Net.RunWhile(func() bool { return c.Apps[0].Chain.Height() < heights && c.Net.Now() < time.Hour })
	backlog := 0
	for h := uint64(0); h < c.Apps[0].Chain.Height(); h++ {
		b, err := c.Apps[0].Chain.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		backlog += len(b.Encode())
	}
	if backlog <= transport.MaxFrame {
		t.Fatalf("backlog of %d bytes fits one frame", backlog)
	}

	c.Net.Reattach(laggard)
	end := c.Net.Now() + time.Minute
	c.Net.RunWhile(func() bool {
		return c.Apps[3].Chain.Height() < c.Apps[0].Chain.Height() && c.Net.Now() < end
	})
	live, got := c.Apps[0].Chain.Height(), c.Apps[3].Chain.Height()
	if got < live {
		t.Fatalf("laggard reached height %d of %d", got, live)
	}
	if bulky < 2 {
		t.Fatalf("%d of %d sync answers over half a frame, want at least 2 for a %d-byte backlog", bulky, answers, backlog)
	}
	for h := uint64(0); h < got; h++ {
		ref, err := c.Apps[0].Chain.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Apps[3].Chain.BlockAt(h)
		if err != nil || b.ID() != ref.ID() {
			t.Fatalf("laggard at height %d: %v, want block %s", h, err, ref.ID().Short())
		}
	}
	t.Logf("%d-byte backlog synced in %d answers", backlog, answers)
}
