package platform

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/search"
	"repro/internal/store"
)

// formatBlobs builds a checkpoint's blob map by hand, as the format defines
// it: the contract state's segment manifest under "contract-state", the
// facts as a JSON list in insertion order under "factdb-index", and the
// packed search snapshot under "search-index".
func formatBlobs(t *testing.T, p *Platform) map[string][]byte {
	t.Helper()
	state, err := p.Engine().StateCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	facts, err := json.Marshal(p.FactIndex().Facts())
	if err != nil {
		t.Fatal(err)
	}
	searchBlob, err := p.indexer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"contract-state": state, "factdb-index": facts, "search-index": searchBlob}
}

// formatAnswers is what the checkpoint's views answer: the state root, the
// facts in order, their accumulator root and a set of ranked searches.
type formatAnswers struct {
	root     string
	facts    string
	factRoot string
	searches []search.Page
}

func formatAnswersOf(t *testing.T, p *Platform) formatAnswers {
	t.Helper()
	root, err := p.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	facts, err := json.Marshal(p.FactIndex().Facts())
	if err != nil {
		t.Fatal(err)
	}
	p.FlushSearch()
	a := formatAnswers{root: root.String(), facts: string(facts), factRoot: p.FactIndex().Root().String()}
	for _, q := range []string{factText, "issue 3", "tail statement", "border treaty"} {
		a.searches = append(a.searches, p.SearchPage(q, search.RankBM25, 0, 0))
	}
	return a
}

// The checkpoint's on-disk format does not move: WriteCheckpoint writes
// exactly the hand-built blob map, and a checkpoint carrying it, plus a
// blob no view reads (an older build's "expert-miner"), restores without a
// full replay — only the tail above it is executed — to the state a full
// replay reaches. This fails only if the format moved.
func TestCheckpointFormatRestoresWithoutReplay(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 12)
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName)
	cp, err := store.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	want := formatBlobs(t, p)
	var keys []string
	for k := range cp.Subscribers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"contract-state", "factdb-index", "search-index"}) {
		t.Fatalf("checkpoint blobs %v", keys)
	}
	for k, blob := range want {
		if !bytes.Equal(cp.Subscribers[k], blob) {
			t.Fatalf("WriteCheckpoint's %s blob differs from the format's", k)
		}
	}
	chainSnap, err := p.chain.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	root, err := p.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	want["expert-miner"] = []byte("a blob no view reads")
	height := p.Chain().Height()
	if err := store.WriteCheckpoint(path, &store.Checkpoint{
		Height:      height,
		HeadID:      p.Chain().HeadID().String(),
		StateHash:   root.String(),
		RootScheme:  contract.StateRootScheme,
		Chain:       chainSnap,
		Subscribers: want,
	}); err != nil {
		t.Fatal(err)
	}
	tail := p.NewActor("tail-author")
	for i := 0; i < 3; i++ {
		if err := tail.PublishNews("tail-"+strconv.Itoa(i), corpus.TopicHealth, "tail statement "+strconv.Itoa(i), nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}

	// CheckpointHeight is the checkpoint's only on the restore path, whose
	// replay starts at it.
	fast, closeFast, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fast.CheckpointHeight() != height || fast.Chain().Height() <= height {
		t.Fatalf("checkpoint height %d, chain height %d: want the checkpoint at %d restored and a tail above it", fast.CheckpointHeight(), fast.Chain().Height(), height)
	}
	if fast.Boot().Replay <= 0 {
		t.Fatal("the tail above the checkpoint was not replayed")
	}
	restored := formatAnswersOf(t, fast)
	if err := closeFast(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	full, closeFull, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFull()
	if full.CheckpointHeight() != 0 {
		t.Fatalf("full replay reports checkpoint height %d", full.CheckpointHeight())
	}
	replayed := formatAnswersOf(t, full)
	if !reflect.DeepEqual(restored, replayed) {
		t.Fatalf("restored node answers\n%+v\nthe fully replayed one\n%+v", restored, replayed)
	}
	if replayed.searches[0].Total == 0 || replayed.facts == "null" {
		t.Fatalf("nothing to compare: %+v", replayed)
	}
}

// A checkpoint lacking any of the three blobs is refused before anything
// is restored, so Open replays in full.
func TestRestoreNeedsEveryBlob(t *testing.T) {
	p := newPlatform(t)
	if err := p.SeedFact("fact-0", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	blobs := formatBlobs(t, p)
	for missing := range blobs {
		partial := make(map[string][]byte)
		for k, b := range blobs {
			if k != missing {
				partial[k] = b
			}
		}
		fresh := newPlatform(t)
		fresh.mu.Lock()
		err := fresh.restoreViewsLocked(partial)
		fresh.mu.Unlock()
		if err == nil {
			t.Fatalf("a checkpoint without %s restored", missing)
		}
		if fresh.FactIndex().Len() != 0 {
			t.Fatalf("a checkpoint without %s restored the fact index", missing)
		}
	}
}
