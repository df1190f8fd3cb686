package platform

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/supplychain"
)

// A validator keeps no copy of the supply-chain graph: the graph reads its
// items from contract state, so 45 056 more committed items may grow the
// live heap after GC by 8 bytes each — what the state's and the
// transaction index's segments keep resident, 2 to 3 bytes an entry each —
// where a resident graph held about 195. The items are relays of one body
// this node does not hold, as a peer validator sees most of a flood,
// committed the way a cluster validator commits (commitDecided) in blocks
// of 512, so both memtables hold the same 1 024 entries at 5 120 and at
// 50 176 items.
func TestValidatorMemoryFlatInItems(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("commits 50 176 items")
	}
	p, closeFn, err := Open(t.TempDir(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	cid, err := blobstore.NewStore(0).PutString("a story whose body lives on another validator")
	if err != nil {
		t.Fatal(err)
	}
	auth := keys.FromSeed([]byte(DefaultConfig().AuthoritySeed))
	committed := 0
	commitTo := func(n int) {
		for committed < n {
			txs := make([]*ledger.Tx, 0, 512)
			for ; len(txs) < 512; committed++ {
				var parents []string
				if committed > 0 {
					parents = []string{"item-000000"}
				}
				payload, err := supplychain.PublishRefPayload(fmt.Sprintf("item-%06d", committed), corpus.TopicPolitics, string(cid), 46, parents, "")
				if err != nil {
					t.Fatal(err)
				}
				tx, err := ledger.NewTx(auth, uint64(committed), "news.publish", payload)
				if err != nil {
					t.Fatal(err)
				}
				txs = append(txs, tx)
			}
			b := ledger.NewBlock(p.Chain().Height(), p.Chain().HeadID(), merkle.Hash{}, time.Unix(1562500000, 0), auth.Address(), txs)
			if err := commitBlock(p, b, nil); err != nil {
				t.Fatal(err)
			}
		}
		p.FlushSearch()
	}
	// The least of a few samples: a segment merge in flight holds a few
	// pages and the bloom it is building.
	liveHeap := func() uint64 {
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			time.Sleep(20 * time.Millisecond)
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			least = min(least, ms.HeapAlloc)
		}
		return least
	}
	commitTo(5_120)
	small, before := committed, liveHeap()
	memBefore := p.Engine().StateStats().Memory
	commitTo(50_176)
	after := liveHeap()
	if got := p.Graph().Len(); got != committed {
		t.Fatalf("graph has %d items, %d committed", got, committed)
	}
	if mem := p.Engine().StateStats().Memory; mem != memBefore {
		t.Fatalf("state memtable %d entries, %d before: the comparison assumes equal memtables", mem, memBefore)
	}
	perItem := float64(int64(after)-int64(before)) / float64(committed-small)
	t.Logf("live heap %.2f MB at %d items, %.2f MB at %d (%.2f B per item)",
		float64(before)/(1<<20), small, float64(after)/(1<<20), committed, perItem)
	if perItem > 8 {
		t.Fatalf("heap grew %.2f bytes per committed item, budget 8", perItem)
	}
	runtime.KeepAlive(p)
}

// committedItems reads every item the news contract holds, in id order.
func committedItems(t *testing.T, p *Platform) []supplychain.Item {
	t.Helper()
	var items []supplychain.Item
	if err := supplychain.StateSource(p.Engine()).ScanItems(func(it supplychain.Item) error {
		items = append(items, it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return items
}
