package search

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// floodBody is the body of the j-th distinct article of a flood-shaped
// stream: eight generated sentences on one topic and a reference unique to
// the body, as the cluster benchmark's articles are.
func floodBody(gen *corpus.Generator, topic corpus.Topic, j int) string {
	var b strings.Builder
	for i := 0; i < 8; i++ {
		b.WriteString(gen.FactualOn(topic).Text)
		b.WriteString(". ")
	}
	fmt.Fprintf(&b, "Filed as b7-%05d.", j)
	return b.String()
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFloodStreamHeapPerDoc indexes a flood-shaped stream — 50 000
// documents, a new body for one in seven (the rest reprint the last one),
// a refresh every 60 documents as the indexer does on a busy validator —
// and holds the index's live heap to 300 bytes per document, postings,
// doc table and id map included.
func TestFloodStreamHeapPerDoc(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector is not the index's")
	}
	const (
		docs       = 50000
		perBody    = 7
		perRefresh = 60
		maxPerDoc  = 300
	)
	gen := corpus.NewGenerator(7)
	before := liveHeap()
	x := New()
	var body string
	var topic corpus.Topic
	for i := 0; i < docs; i++ {
		if i%perBody == 0 {
			topic = corpus.AllTopics[(i/perBody)%len(corpus.AllTopics)]
			body = floodBody(gen, topic, i/perBody)
		}
		x.Add(fmt.Sprintf("f7-%06d", i), string(topic), body)
		if (i+1)%perRefresh == 0 {
			x.Refresh()
		}
	}
	x.Refresh()
	body = ""
	after := liveHeap()
	postings := 0
	for _, seg := range *x.segments.Load() {
		for _, l := range seg.postings {
			postings += l.count()
		}
	}
	perDoc := float64(after-before) / docs
	t.Logf("%d docs, %.1f postings/doc: %.0f B/doc live", docs, float64(postings)/docs, perDoc)
	if after < before || perDoc > maxPerDoc {
		t.Fatalf("index holds %.0f B per document (%d → %d bytes), want ≤ %d", perDoc, before, after, maxPerDoc)
	}
	if res := x.Query("filed", 0); len(res) != docs {
		t.Fatalf("query matched %d of %d documents", len(res), docs)
	}
	runtime.KeepAlive(x)
}

// TestCompactionTiersHoldAtVolume refreshes after every one of 50 000
// documents and checks after each refresh that the tiers hold: every
// segment holds more than tierRatio times the documents of the one after
// it, so the index keeps fewer than log2(N+1) segments. The shape bounds the
// rewrites too. When the newest segment b merges into a, a ≤ tierRatio·b,
// and b ≤ a because everything after a held fewer documents than a. So
// every merge grows the segment a posting sits in by at least half, and a
// posting is rewritten at most log1.5(N) times. Merging the two smallest
// of a fixed number of segments breaks the shape within a few hundred
// refreshes, and rewrites a share of the index on every seal.
func TestCompactionTiersHoldAtVolume(t *testing.T) {
	docs := 50000
	if raceEnabled {
		docs = 5000
	}
	x := New()
	for i := 0; i < docs; i++ {
		x.Add(fmt.Sprintf("d%05d", i), "t", fmt.Sprintf("shared w%d", i))
		x.Refresh()
		segs := *x.segments.Load()
		if len(segs) > bits.Len(uint(i+1)) {
			t.Fatalf("%d segments for %d docs", len(segs), i+1)
		}
		for j := 1; j < len(segs); j++ {
			if segs[j-1].docs <= tierRatio*segs[j].docs {
				t.Fatalf("after %d docs, segment %d holds %d docs and segment %d holds %d: not tiered", i+1, j-1, segs[j-1].docs, j, segs[j].docs)
			}
		}
	}
	t.Logf("%d docs: %d segments", docs, len(*x.segments.Load()))
	if res := x.Query("shared", 0); len(res) != docs {
		t.Fatalf("compaction lost postings: %d/%d docs match", len(res), docs)
	}
}
