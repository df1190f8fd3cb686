package platform

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/ranking"
	"repro/internal/store"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// bigText is an article body that takes most of what the mempool admits,
// so inline publishes fill the state's memtable (a MiB) in about 17 blocks.
var bigText = strings.Repeat("a long inline statement about the state log ", 1400)

// sealState commits inline publishes of large items, one a block, until
// the contract state has sealed n more segments.
func sealState(tb testing.TB, p *Platform, n int) {
	tb.Helper()
	a := p.NewActor("big-author")
	for sealed := 0; sealed < n; {
		before := p.Engine().StateStats().Memory
		id := "big-" + strconv.Itoa(int(p.Chain().Height()))
		payload, err := supplychain.PublishPayload(id, corpus.TopicScience, bigText+id, nil, "")
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := a.MustExec("news.publish", payload); err != nil {
			tb.Fatal(err)
		}
		if p.Engine().StateStats().Memory < before {
			sealed++
		}
	}
}

// stateAnswers is what a node says that its contract state decides: the
// state root, every receipt, the votes on every item, the item list, and
// from the graph the item count, the trace of every item but the large
// fillers sealState writes, and the experts on the workload's topics.
type stateAnswers struct {
	root     merkle.Hash
	receipts map[ledger.TxID][]byte
	votes    map[string][]byte
	list     []byte
	graph    []byte
}

func stateAnswersOf(t *testing.T, p *Platform) stateAnswers {
	t.Helper()
	a := stateAnswers{receipts: servedReceipts(t, p), votes: map[string][]byte{}}
	graph := map[string]any{"len": p.Graph().Len()}
	var err error
	if a.root, err = p.Engine().StateRoot(); err != nil {
		t.Fatal(err)
	}
	if a.list, err = p.Engine().Query(p.Authority(), "news.list", nil); err != nil {
		t.Fatal(err)
	}
	items := committedItems(t, p)
	for _, it := range items {
		if a.votes[it.ID], err = p.Engine().Query(p.Authority(), "rank.votes", []byte(it.ID)); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(it.ID, "big-") {
			continue
		}
		if graph["trace "+it.ID], err = p.Graph().Trace(it.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, topic := range []corpus.Topic{corpus.TopicPolitics, corpus.TopicHealth} {
		if graph["experts "+string(topic)], err = p.Experts(topic, 0); err != nil {
			t.Fatal(err)
		}
	}
	if a.graph, err = json.Marshal(graph); err != nil {
		t.Fatal(err)
	}
	return a
}

func (a stateAnswers) mustEqual(t *testing.T, b stateAnswers) {
	t.Helper()
	if a.root != b.root {
		t.Fatalf("state root %s, want %s", b.root.Short(), a.root.Short())
	}
	if !bytes.Equal(a.list, b.list) {
		t.Fatalf("news.list answered\n%s\nwant\n%s", b.list, a.list)
	}
	if !bytes.Equal(a.graph, b.graph) {
		t.Fatalf("the graph answered\n%s\nwant\n%s", b.graph, a.graph)
	}
	if len(a.votes) != len(b.votes) || len(a.receipts) != len(b.receipts) {
		t.Fatalf("%d items and %d receipts, want %d and %d", len(b.votes), len(b.receipts), len(a.votes), len(a.receipts))
	}
	for id, v := range a.votes {
		if !bytes.Equal(b.votes[id], v) {
			t.Fatalf("rank.votes %s answered %s, want %s", id, b.votes[id], v)
		}
	}
	for id, r := range a.receipts {
		if !bytes.Equal(b.receipts[id], r) {
			t.Fatalf("receipt of %s changed", id.Short())
		}
	}
}

// TestOpenRepairsStateLog damages state.log of a checkpointed data
// directory the ways a crash, a disk or an older build can, and checks that
// the node opens on the checkpoint when the segments it names are there and
// replays in full when they are not, answers for its state — root,
// receipts, rank.votes, news.list, the graph's Len, traces and experts — as
// before the restart, and opens on a checkpoint again the time after.
func TestOpenRepairsStateLog(t *testing.T) {
	// The template: items and votes, then enough large items for six
	// sealed segments of the state — four merged into one, two more — and
	// a checkpoint naming them, with some writes still in the memtable.
	tmpl := t.TempDir()
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, closeFn, err := Open(tmpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 6)
	sealState(t, p, 6)
	tail := p.NewActor("template-tail")
	for i := 0; i < 3; i++ {
		if err := tail.PublishNews("tail-"+strconv.Itoa(i), corpus.TopicHealth, "a tail statement "+strconv.Itoa(i), nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if st := p.Engine().StateStats(); st.Segments != 3 || st.Merges != 1 || st.Memory == 0 {
		t.Fatalf("template state %+v, want three segments after one merge and a memtable", st)
	}
	if got := cfg.Telemetry.CounterVec("trustnews_store_segment_merges_total", "", "log").With("state").Value(); got != 1 {
		t.Fatalf("state merges counted: %d, want 1", got)
	}
	ckptHeight := p.CheckpointHeight()
	// A node from before state.log kept the state as a gob map in its
	// checkpoint.
	snap, err := p.Engine().StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var gobState bytes.Buffer
	if err := gob.NewEncoder(&gobState).Encode(snap); err != nil {
		t.Fatal(err)
	}
	items := committedItems(t, p)
	graphBlob, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = nil

	cases := []struct {
		name     string
		after    func(t *testing.T, p *Platform) // work done after the checkpoint
		damage   func(t *testing.T, dir string)
		wantCkpt bool
	}{
		{name: "intact", wantCkpt: true},
		{name: "missing", damage: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, stateLogName)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn last record", damage: func(t *testing.T, dir string) {
			path := filepath.Join(dir, stateLogName)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-9); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "flipped byte", damage: func(t *testing.T, dir string) {
			path := filepath.Join(dir, stateLogName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "records after the checkpoint", wantCkpt: true, after: func(t *testing.T, p *Platform) {
			sealState(t, p, 1)
			if st := p.Engine().StateStats(); st.Segments != 4 {
				t.Fatalf("state after the checkpoint %+v, want a fourth segment", st)
			}
		}},
		{name: "a merge appended after the checkpoint", wantCkpt: true, after: func(t *testing.T, p *Platform) {
			sealState(t, p, 2) // four segments of level 0
			p.engine.Close()   // waits for the merge
			if st := p.Engine().StateStats(); st.Segments != 2 || st.Merges != 1 {
				t.Fatalf("state after the checkpoint %+v, want the level-0 segments merged", st)
			}
		}},
		{name: "a checkpoint carrying the graph blob", wantCkpt: true, damage: func(t *testing.T, dir string) {
			// Builds that kept the graph in memory checkpointed it as its
			// items in commit order; nothing claims that blob any more.
			ckpt := filepath.Join(dir, checkpointName)
			cp, err := store.ReadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			cp.Subscribers["supplychain-graph"] = graphBlob
			if err := store.WriteCheckpoint(ckpt, cp); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "a checkpoint carrying the blob reference and penalty blobs", wantCkpt: true, damage: func(t *testing.T, dir string) {
			// Builds that counted references to committed bodies checkpointed
			// the counts, kept operator pins in blobs/pins, and wrote an empty
			// blob for the penalty forwarder; nothing reads any of them now.
			refs := map[string]map[string]int{"refs": {}}
			var pins strings.Builder
			for _, it := range items {
				if it.CID != "" {
					refs["refs"][it.CID]++
					pins.WriteString(it.CID + "\n")
				}
			}
			refsBlob, err := json.Marshal(refs)
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(dir, checkpointName)
			cp, err := store.ReadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			cp.Subscribers["blob-refs"] = refsBlob
			cp.Subscribers["rank-penalties"] = nil
			if err := store.WriteCheckpoint(ckpt, cp); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "blobs", "pins"), []byte(pins.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// A checkpoint from before state.log held the state as a gob map:
		// it is not restored, and the chain is replayed instead.
		{name: "written by the parent commit", damage: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, stateLogName)); err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(dir, checkpointName)
			cp, err := store.ReadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			cp.Subscribers[stateSubscriberName] = gobState.Bytes()
			if err := store.WriteCheckpoint(ckpt, cp); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, tmpl, dir)
			p, closeFn, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.after != nil {
				tc.after(t, p)
			}
			// A block the checkpoint does not cover, whose writes stay in the
			// memtable.
			author := p.NewActor("after-" + strconv.Itoa(len(tc.name)))
			if err := author.PublishNews("late", corpus.TopicScience, "a late statement", []string{"item-0"}, corpus.OpVerbatim); err != nil {
				t.Fatal(err)
			}
			want := stateAnswersOf(t, p)
			height := p.Chain().Height()
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}
			if tc.damage != nil {
				tc.damage(t, dir)
			}

			re, closeRe, err := Open(dir, cfg)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			wantCkpt := uint64(0)
			if tc.wantCkpt {
				wantCkpt = ckptHeight
			}
			if got := re.CheckpointHeight(); got != wantCkpt || re.Chain().Height() != height {
				t.Fatalf("opened at height %d on a checkpoint at %d, want %d and %d", re.Chain().Height(), got, height, wantCkpt)
			}
			want.mustEqual(t, stateAnswersOf(t, re))

			// The repair happens once.
			if err := re.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			if err := closeRe(); err != nil {
				t.Fatal(err)
			}
			again, closeAgain, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAgain()
			if got := again.CheckpointHeight(); got != height {
				t.Fatalf("second open on a checkpoint at %d, want %d", got, height)
			}
			want.mustEqual(t, stateAnswersOf(t, again))
		})
	}
}

// A validator nobody asks for a state root block by block — consensus
// headers carry none — computes one for a checkpoint and does not keep the
// trie it built for it: 50 000 keys' worth of hashes (about 10 MB, 190
// bytes a key) would otherwise sit in memory until the next checkpoint.
// Under the race detector the state is 10 000 keys.
func TestReplicatedCheckpointDropsStateTrie(t *testing.T) {
	keyCount := 50_000
	if testing.Short() || raceEnabled {
		keyCount = 10_000
	}
	p, closeFn, err := Open(t.TempDir(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	auth := keys.FromSeed([]byte(DefaultConfig().AuthoritySeed))
	var nonce uint64
	for n := 0; n < keyCount; {
		var txs []*ledger.Tx
		for ; len(txs) < 512 && n < keyCount; n++ {
			payload, err := ranking.MintPayload(keys.FromSeed([]byte("replica-account-"+strconv.Itoa(n))).Address(), 1)
			if err != nil {
				t.Fatal(err)
			}
			tx, err := ledger.NewTx(auth, nonce, "rank.mint", payload)
			if err != nil {
				t.Fatal(err)
			}
			nonce++
			txs = append(txs, tx)
		}
		b := ledger.NewBlock(p.Chain().Height(), p.Chain().HeadID(), merkle.Hash{}, time.Unix(1562500000, 0), auth.Address(), txs)
		if err := commitBlock(p, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heapInUse()
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	after := heapInUse()
	grown := int64(after) - int64(before)
	t.Logf("heap in use %.2f MB before the checkpoint, %.2f MB after", float64(before)/(1<<20), float64(after)/(1<<20))
	if grown > int64(40*keyCount) {
		t.Fatalf("the checkpoint left %.2f MB more in the heap: the state trie was kept", float64(grown)/(1<<20))
	}
	runtime.KeepAlive(p)
}
