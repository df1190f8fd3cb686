package search

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/commitbus"
	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/supplychain"
)

func TestQueryRanksByBM25(t *testing.T) {
	x := New()
	x.Add("a", "econ", "the budget passed the budget committee budget")
	x.Add("b", "econ", "the committee debated the schedule")
	x.Add("c", "sport", "the match ended in a draw")
	x.Refresh()

	res := x.Query("budget committee", 0)
	if len(res) != 2 {
		t.Fatalf("hits = %d, want 2 (doc c matches neither term)", len(res))
	}
	if res[0].ID != "a" {
		t.Fatalf("top hit = %s, want a (three budget mentions)", res[0].ID)
	}
	if res[0].Topic != "econ" {
		t.Fatalf("topic = %s, want econ", res[0].Topic)
	}
	if res[0].Score <= res[1].Score {
		t.Fatalf("scores not descending: %v", res)
	}
}

func TestQueryTopKAndNoHits(t *testing.T) {
	x := New()
	for _, id := range []string{"a", "b", "c", "d"} {
		x.Add(id, "t", "shared words everywhere")
	}
	x.Refresh()
	if res := x.Query("shared", 2); len(res) != 2 {
		t.Fatalf("top-2 = %d hits", len(res))
	}
	if res := x.Query("zzz unknown terms", 5); len(res) != 0 {
		t.Fatalf("no-hit query returned %v", res)
	}
	if res := x.Query("", 5); len(res) != 0 {
		t.Fatalf("empty query returned %v", res)
	}
}

func TestQueryPagination(t *testing.T) {
	x := New()
	for i := 0; i < 10; i++ {
		x.Add(fmt.Sprintf("doc-%02d", i), "t", "common theme everywhere")
	}
	x.Refresh()
	p := x.QueryPage("common", 0, 4)
	if p.Total != 10 || len(p.Results) != 4 {
		t.Fatalf("page 0: total=%d len=%d", p.Total, len(p.Results))
	}
	p2 := x.QueryPage("common", 4, 4)
	if p2.Total != 10 || len(p2.Results) != 4 {
		t.Fatalf("page 1: total=%d len=%d", p2.Total, len(p2.Results))
	}
	if p.Results[0].ID == p2.Results[0].ID {
		t.Fatal("pages overlap")
	}
	// All scores tie, so pagination order is the id tie-break: the two
	// pages concatenated must equal the unpaginated top-8.
	all := x.QueryPage("common", 0, 8)
	got := append(append([]Result{}, p.Results...), p2.Results...)
	if !reflect.DeepEqual(all.Results, got) {
		t.Fatalf("pages not contiguous:\nall  %v\npages %v", all.Results, got)
	}
	// Past-the-end window: empty but with the true total.
	p3 := x.QueryPage("common", 100, 4)
	if p3.Total != 10 || len(p3.Results) != 0 {
		t.Fatalf("past-end page: %+v", p3)
	}
}

func TestAddIsIdempotent(t *testing.T) {
	x := New()
	x.Add("a", "t", "one two three")
	x.Add("a", "t", "one two three")
	x.Refresh()
	if x.Docs() != 1 {
		t.Fatalf("Docs = %d, want 1", x.Docs())
	}
	res := x.Query("one", 0)
	if len(res) != 1 || res[0].Score != x.Query("two", 0)[0].Score {
		t.Fatalf("duplicate Add skewed term frequencies: %v", res)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	x := New()
	x.Add("beta", "t", "identical text")
	x.Add("alpha", "t", "identical text")
	x.Refresh()
	res := x.Query("identical", 0)
	if len(res) != 2 || res[0].ID != "alpha" || res[1].ID != "beta" {
		t.Fatalf("tie-break not by id: %v", res)
	}
}

// TestScoresIndependentOfSegmentLayout is the determinism invariant the
// snapshot format relies on: the same corpus must score identically
// however the segments were sealed or compacted.
func TestScoresIndependentOfSegmentLayout(t *testing.T) {
	corpusDocs := make([][3]string, 60)
	for i := range corpusDocs {
		corpusDocs[i] = [3]string{
			fmt.Sprintf("d%03d", i), "t",
			fmt.Sprintf("senate budget vote round %d plus filler words number %d", i%7, i),
		}
	}
	build := func(refreshEvery int) *Index {
		x := New()
		for i, d := range corpusDocs {
			x.Add(d[0], d[1], d[2])
			if refreshEvery > 0 && i%refreshEvery == 0 {
				x.Refresh()
			}
		}
		x.Refresh()
		return x
	}
	want := build(0).QueryPage("senate budget round", 0, 0)
	for _, refreshEvery := range []int{3, 1, 7, 5} {
		got := build(refreshEvery).QueryPage("senate budget round", 0, 0)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("refreshEvery=%d diverged from one-segment scores", refreshEvery)
		}
	}
}

// TestCompactionBoundsSegments drives many small refreshes through the
// index and checks that the tiers hold — adjacent segments differ in size
// by more than tierRatio, so there are fewer than log2(N+1) of them —
// while no posting is lost.
func TestCompactionBoundsSegments(t *testing.T) {
	x := New()
	for i := 0; i < 100; i++ {
		x.Add(fmt.Sprintf("d%03d", i), "t", fmt.Sprintf("word%d shared", i))
		x.Refresh() // one tiny segment per doc without compaction
	}
	segs := *x.segments.Load()
	if budget := bits.Len(100); len(segs) > budget {
		t.Fatalf("segments = %d, budget %d", len(segs), budget)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i-1].docs <= tierRatio*segs[i].docs {
			t.Fatalf("segment %d holds %d docs, segment %d holds %d: not tiered", i-1, segs[i-1].docs, i, segs[i].docs)
		}
	}
	if res := x.Query("shared", 0); len(res) != 100 {
		t.Fatalf("compaction lost postings: %d/100 docs match", len(res))
	}
}

// TestConcurrentQueriesDuringIndexing exercises the lock-free read
// path under -race: queries run while the writer adds and refreshes.
func TestConcurrentQueriesDuringIndexing(t *testing.T) {
	x := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					x.Query("concurrent words stream", 10)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		x.Add(fmt.Sprintf("d%05d", i), "t", fmt.Sprintf("concurrent words stream item %d", i))
		if i%97 == 0 {
			x.Refresh()
		}
	}
	x.Refresh()
	close(stop)
	wg.Wait()
	if got := x.Docs(); got != 2000 {
		t.Fatalf("Docs = %d, want 2000", got)
	}
	if res := x.Query("concurrent", 0); len(res) != 2000 {
		t.Fatalf("matches = %d, want 2000", len(res))
	}
}

// legacyIndex is the plainest index: one postings map, scored by
// BM25 into a fresh map per query. It is the oracle for the segmented
// index's reused query scratch.
type legacyIndex struct {
	postings map[string]map[string]int // term -> doc id -> term frequency
	docs     map[string]legacyDoc
	totalLen int
}

type legacyDoc struct {
	topic  string
	length int
}

func newLegacyIndex() *legacyIndex {
	return &legacyIndex{
		postings: make(map[string]map[string]int),
		docs:     make(map[string]legacyDoc),
	}
}

func (x *legacyIndex) Add(id, topic, text string) {
	if _, dup := x.docs[id]; dup || id == "" {
		return
	}
	toks := corpus.Tokenize(text)
	x.docs[id] = legacyDoc{topic: topic, length: len(toks)}
	x.totalLen += len(toks)
	for _, tok := range toks {
		post := x.postings[tok]
		if post == nil {
			post = make(map[string]int)
			x.postings[tok] = post
		}
		post[id]++
	}
}

// Query returns the top-k documents by BM25, ties broken by id.
func (x *legacyIndex) Query(q string, k int) []Result {
	n := float64(len(x.docs))
	avgdl := float64(x.totalLen) / n
	scores := make(map[string]float64)
	for _, tok := range corpus.Tokenize(q) {
		post := x.postings[tok]
		if len(post) == 0 {
			continue
		}
		df := float64(len(post))
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for id, f := range post {
			tf, dl := float64(f), float64(x.docs[id].length)
			scores[id] += idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgdl))
		}
	}
	out := make([]Result, 0, len(scores))
	for id, sc := range scores {
		out = append(out, Result{ID: id, Topic: x.docs[id].topic, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestQueryScratchReuseMatchesLegacyIndex runs many queries back to back,
// between additions that widen the doc table, so every query after the
// first scores into a reused accumulator: each window must equal the
// legacy index's answer, which builds a fresh map per query.
func TestQueryScratchReuseMatchesLegacyIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	words := func(n int) string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(out, " ")
	}
	x := New()
	leg := newLegacyIndex()
	for round := 0; round < 30; round++ {
		for i := 0; i < 20; i++ {
			id, text := fmt.Sprintf("d%02d-%02d", round, i), words(5+rng.Intn(30))
			x.Add(id, "t", text)
			leg.Add(id, "t", text)
		}
		x.Refresh()
		for k := 0; k < 10; k++ {
			q := words(1 + rng.Intn(3))
			if k == 0 {
				q = "absent"
			}
			all := leg.Query(q, 0)
			offset, limit := rng.Intn(len(all)+2), rng.Intn(12)
			want := []Result{}
			if offset < len(all) {
				want = all[offset:]
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
			}
			got := x.QueryPage(q, offset, limit)
			if got.Total != len(all) || !reflect.DeepEqual(got.Results, want) {
				t.Fatalf("round %d query %q offset %d limit %d: total %d want %d\ngot  %v\nwant %v",
					round, q, offset, limit, got.Total, len(all), got.Results, want)
			}
		}
	}
}

// TestRankTopMatchesFullSort: for every k the first k entries equal the
// fully sorted prefix and nothing is lost from the slice.
func TestRankTopMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cmp := func(a, b int32) int { return int(b) - int(a) } // descending
	for n := 0; n <= 40; n++ {
		base := make([]int32, n)
		for i, v := range rng.Perm(n) {
			base[i] = int32(v)
		}
		for k := -1; k <= n+1; k++ {
			got := append([]int32(nil), base...)
			rankTop(got, k, cmp)
			head := k
			if k <= 0 || k > n {
				head = n
			}
			for i := 0; i < head; i++ {
				if got[i] != int32(n-1-i) {
					t.Fatalf("n=%d k=%d: got %v", n, k, got)
				}
			}
			seen := make(map[int32]bool, n)
			for _, v := range got {
				seen[v] = true
			}
			if len(got) != n || len(seen) != n {
				t.Fatalf("n=%d k=%d: entries lost: %v", n, k, got)
			}
		}
	}
}

// publishEvent fabricates the commit event a published item produces.
func publishEvent(t *testing.T, height uint64, it supplychain.Item) commitbus.CommitEvent {
	t.Helper()
	raw, err := json.Marshal(it)
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]string{"id": it.ID, "topic": string(it.Topic)}
	if it.CID != "" {
		attrs["cid"] = it.CID
	}
	return commitbus.CommitEvent{
		Height: height,
		Receipts: []contract.Receipt{{
			OK:     true,
			Result: raw,
			Events: []contract.Event{{Contract: supplychain.ContractName, Type: "published", Attrs: attrs}},
		}},
	}
}

func TestSubscriberIndexesInlineAndOffChainAsync(t *testing.T) {
	bodies := map[string]string{"cid1": "resolved off chain body about tariffs"}
	sub := NewSubscriber(New(), func(cid string) (string, error) {
		b, ok := bodies[cid]
		if !ok {
			return "", fmt.Errorf("unexpected resolve %s", cid)
		}
		return b, nil
	})
	if err := sub.OnCommit(publishEvent(t, 1, supplychain.Item{ID: "in", Topic: "econ", Text: "inline body about budgets"})); err != nil {
		t.Fatal(err)
	}
	if err := sub.OnCommit(publishEvent(t, 2, supplychain.Item{ID: "off", Topic: "econ", CID: "cid1", Size: 38})); err != nil {
		t.Fatal(err)
	}
	sub.Flush()
	if res := sub.Index.Query("tariffs", 0); len(res) != 1 || res[0].ID != "off" {
		t.Fatalf("off-chain body not searchable: %v", res)
	}
	if res := sub.Index.Query("budgets", 0); len(res) != 1 || res[0].ID != "in" {
		t.Fatalf("inline body not searchable: %v", res)
	}
	if st := sub.Stats(); st.Indexed != 2 || st.Pending != 0 || st.Errors != 0 {
		t.Fatalf("indexer stats = %+v", st)
	}
}

func TestSubscriberCountsResolveFailures(t *testing.T) {
	sub := NewSubscriber(New(), nil)
	if err := sub.OnCommit(publishEvent(t, 1, supplychain.Item{ID: "off", Topic: "econ", CID: "cid1", Size: 10})); err != nil {
		t.Fatal(err)
	}
	sub.Flush()
	st := sub.Stats()
	if st.Errors != 1 || st.LastError == "" {
		t.Fatalf("resolver-less off-chain item not counted as indexer error: %+v", st)
	}
	if sub.Index.Docs() != 0 {
		t.Fatal("unresolvable item was indexed anyway")
	}
}

func TestSnapshotRestoreIsSelfContained(t *testing.T) {
	sub := NewSubscriber(New(), nil)
	sub.Index.Add("a", "econ", "the budget passed")
	sub.Index.Add("b", "sport", "the match ended")
	blob, err := sub.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh subscriber with NO resolver: must not need one.
	re := NewSubscriber(New(), nil)
	if err := re.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if re.Index.Docs() != 2 {
		t.Fatalf("Docs after restore = %d", re.Index.Docs())
	}
	want := sub.Index.Query("budget", 0)
	got := re.Index.Query("budget", 0)
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("restored query = %v, want %v", got, want)
	}
	if err := re.Restore(nil); err != nil {
		t.Fatal(err)
	}
	if re.Index.Docs() != 0 {
		t.Fatal("empty restore did not clear index")
	}
}

// TestSnapshotDeterministicAcrossLayouts: two indexes holding the same
// corpus but with different seal histories must emit
// byte-identical snapshots — the property that lets replicas exchange
// and compare checkpoints.
func TestSnapshotDeterministicAcrossLayouts(t *testing.T) {
	build := func(refreshEvery int) *Subscriber {
		sub := NewSubscriber(New(), nil)
		for i := 0; i < 40; i++ {
			sub.Index.Add(fmt.Sprintf("d%02d", i), "t", fmt.Sprintf("shared words item %d", i))
			if i%refreshEvery == 0 {
				sub.Index.Refresh()
			}
		}
		return sub
	}
	a, err := build(3).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(7).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("snapshots differ across segment layouts")
	}
}

// TestIndexDoesNotRetainBodies indexes 16 MB of article text and checks
// that what stays on the heap is the postings, not the articles: a posting
// key is a substring of the (lowered) body, and one such key kept in a map
// keeps the whole body alive. Text has rare words, and those are the keys
// that pin: each document here is made of 50 common words and one of 450
// rare ones.
func TestIndexDoesNotRetainBodies(t *testing.T) {
	const (
		docs     = 2000
		bodySize = 8 << 10
		common   = 50
		rare     = 450
		slack    = 3 << 20 // posting-slice growth, map buckets, doc table
	)
	word := func(i int) string { return fmt.Sprintf("w%03dterm", i) }
	rng := rand.New(rand.NewSource(1))
	body := func(doc int) string {
		var sb strings.Builder
		sb.WriteString(word(common + doc%rare))
		for sb.Len() < bodySize {
			sb.WriteByte(' ')
			sb.WriteString(word(rng.Intn(common)))
		}
		return sb.String()
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// One document per Refresh is the indexer on one-article blocks; with
	// sixteen, most terms meet a memtable that already has them.
	for _, perRefresh := range []int{1, 16} {
		t.Run(fmt.Sprintf("docsPerRefresh=%d", perRefresh), func(t *testing.T) {
			x := New()
			before := heap()
			for i := 0; i < docs; i++ {
				x.Add(fmt.Sprintf("doc-%d", i), "politics", body(i))
				if (i+1)%perRefresh == 0 {
					x.Refresh()
				}
			}
			after := heap()

			var own uint64
			for _, seg := range *x.segments.Load() {
				for _, l := range seg.postings {
					own += uint64(len(l))
				}
			}
			if grew := after - before; after > before && grew > own+slack {
				t.Fatalf("heap grew %.1f MB for %.1f MB of postings: the index retains article text (%d docs of %d KB)",
					float64(grew)/(1<<20), float64(own)/(1<<20), docs, bodySize>>10)
			}
			runtime.KeepAlive(x)
		})
	}
}
