package platform

import (
	"fmt"
	"testing"

	"repro/internal/consensus"
	"repro/internal/simnet"
)

// A validator proposes at most Config.MaxTxsPerBlock transactions a block,
// as a standalone node commits: twenty queued transactions on a
// two-validator cluster with a bound of four never share a block of five.
func TestValidatorHonoursMaxTxsPerBlock(t *testing.T) {
	const n, queued = 2, 20
	set, kps, err := ClusterValidators(n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(1)
	ps := make([]*Platform, n)
	nodes := make([]*consensus.Node, n)
	for i := range ps {
		cfg := DefaultConfig()
		cfg.MaxTxsPerBlock = 4
		if ps[i], err = New(cfg); err != nil {
			t.Fatal(err)
		}
		nodes[i] = AttachConsensus(ps[i], ValidatorID(i), kps[i], set, net, consensus.Timeouts{})
		if err := nodes[i].Bind(); err != nil {
			t.Fatal(err)
		}
	}
	author := ps[0].NewActor("author")
	for i := 0; i < queued; i++ {
		tx, err := author.Send("news.publish", publishPayload(t, fmt.Sprintf("bounded-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := ps[1].SubmitRelayed(tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range nodes {
		node.StartAt(0)
	}
	net.RunWhile(func() bool { return ps[0].MempoolSize()+ps[1].MempoolSize() > 0 })
	for i, p := range ps {
		committed := 0
		for h := uint64(0); h < p.Chain().Height(); h++ {
			b, err := p.Chain().BlockAt(h)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Txs) > 4 {
				t.Fatalf("validator %d: block %d carries %d transactions, MaxTxsPerBlock is 4", i, h, len(b.Txs))
			}
			committed += len(b.Txs)
		}
		if committed != queued {
			t.Fatalf("validator %d committed %d of %d transactions", i, committed, queued)
		}
	}
}
