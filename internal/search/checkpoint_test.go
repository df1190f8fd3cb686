package search

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// checkpointDocs is the corpus of testdata/checkpoint_v1.json.
func checkpointDocs() [][3]string {
	gen := corpus.NewGenerator(5)
	var out [][3]string
	for i := 0; i < 60; i++ {
		topic := corpus.AllTopics[i%len(corpus.AllTopics)]
		text := gen.FactualOn(topic).Text + ". " + gen.FactualOn(topic).Text + fmt.Sprintf(". Filed as c%03d.", i)
		out = append(out, [3]string{fmt.Sprintf("c%03d", i), string(topic), text})
	}
	return out
}

// buildCheckpointIndex indexes checkpointDocs with a refresh every seven
// documents, the layout testdata/checkpoint_v1.json came from,
// and returns it with one query per document plus a few short ones.
func buildCheckpointIndex() (*Indexer, []string) {
	sub := NewIndexer(New(), nil)
	var queries []string
	for i, d := range checkpointDocs() {
		sub.Index.Add(d[0], d[1], d[2])
		if i%7 == 0 {
			sub.Index.Refresh()
		}
		queries = append(queries, d[2])
	}
	sub.Index.Refresh()
	return sub, append(queries, "filed", "politics budget", "c007")
}

// TestRestoreRejectsJSONSnapshot: testdata/checkpoint_v1.json is the JSON
// snapshot earlier builds wrote. This one refuses it with ErrBadSnapshot and
// keeps the index it had; a node then rebuilds by replay (the platform's
// TestOpenFallsBackOnUnusableCheckpoint). There is no migration.
func TestRestoreRejectsJSONSnapshot(t *testing.T) {
	blob, err := os.ReadFile("testdata/checkpoint_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	sub, queries := buildCheckpointIndex()
	before, err := sub.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := sub.Index.QueryPage(queries[0], 0, 0)
	if err := sub.Restore(blob); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Restore of a JSON snapshot: %v, want ErrBadSnapshot", err)
	}
	if got := sub.Index.QueryPage(queries[0], 0, 0); want.Total == 0 || !reflect.DeepEqual(want, got) {
		t.Fatalf("a rejected restore changed the answers: %+v, had %+v", got, want)
	}
	if after, _ := sub.Snapshot(); string(after) != string(before) {
		t.Fatal("a rejected restore changed the index")
	}
}

// TestRestoreAnswersAsBuilt: an index restored from a snapshot answers every
// query as the index that wrote it, and writes the same bytes back.
func TestRestoreAnswersAsBuilt(t *testing.T) {
	built, queries := buildCheckpointIndex()
	blob, err := built.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewIndexer(New(), nil)
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	checkLists(t, restored.Index)
	for _, q := range queries {
		want := built.Index.QueryPage(q, 0, 0)
		got := restored.Index.QueryPage(q, 0, 0)
		if want.Total == 0 || !reflect.DeepEqual(want, got) {
			t.Fatalf("%q: restored index answers %+v, built one %+v", q, got, want)
		}
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(blob) {
		t.Fatal("the restored index writes a different snapshot")
	}
	// Documents added after a restore land behind the restored ones.
	restored.Index.Add("late", "t", "filed late")
	restored.Index.Refresh()
	if res := restored.Index.Query("filed", 0); len(res) != len(checkpointDocs())+1 {
		t.Fatalf("after a restore and one more document, %d docs match", len(res))
	}
	checkLists(t, restored.Index)
}

// checkLists walks every published list and fails unless its documents are
// strictly ascending and inside the doc table and its count is right.
func checkLists(t testing.TB, x *Index) {
	t.Helper()
	docs := x.Docs()
	for _, seg := range *x.segments.Load() {
		for term, l := range seg.postings {
			n, prev := 0, int32(-1)
			l.each(func(doc, tf int32) bool {
				if doc <= prev || int(doc) >= docs || tf < 1 {
					t.Fatalf("%q: posting %d (doc %d, tf %d) after doc %d, %d docs", term, n, doc, tf, prev, docs)
				}
				prev = doc
				n++
				return true
			})
			if n != l.count() {
				t.Fatalf("%q: %d postings, count says %d", term, n, l.count())
			}
		}
	}
}

// hostile builds a snapshot blob by hand: docs then terms then lists, each
// list given as its raw bytes.
func hostile(ids []string, terms []string, lists ...[]byte) []byte {
	b := []byte(snapshotMagic)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendString(b, id)
		b = appendString(b, "t")
		b = binary.AppendUvarint(b, 3)
	}
	b = binary.AppendUvarint(b, uint64(len(terms)))
	for _, term := range terms {
		b = appendString(b, term)
	}
	for _, l := range lists {
		b = binary.AppendUvarint(b, uint64(len(l)))
		b = append(b, l...)
	}
	return b
}

func TestRestoreRejectsHostileSnapshots(t *testing.T) {
	ab := []string{"a", "b"}
	cases := map[string][]byte{
		"json":                []byte(`{"docs":[],"postings":{}}`),
		"magic only":          []byte(snapshotMagic),
		"huge doc count":      append([]byte(snapshotMagic), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"overlong uvarint":    append([]byte(snapshotMagic), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"non-minimal uvarint": append([]byte(snapshotMagic), 0x80, 0x00),
		"id past the end":     append([]byte(snapshotMagic), 1, 9, 'a'),
		"empty id":            hostile([]string{""}, nil),
		"duplicate id":        hostile([]string{"a", "a"}, nil),
		"terms unsorted":      hostile(ab, []string{"y", "x"}, []byte{1, 0, 1}, []byte{1, 0, 1}),
		"term twice":          hostile(ab, []string{"x", "x"}, []byte{1, 0, 1}, []byte{1, 0, 1}),
		"empty list":          hostile(ab, []string{"x"}, []byte{0}),
		"doc out of range":    hostile(ab, []string{"x"}, []byte{1, 2, 1}),
		"doc repeated":        hostile(ab, []string{"x"}, []byte{2, 1, 1, 0, 1}),
		"count too high":      hostile(ab, []string{"x"}, []byte{3, 0, 1, 1, 1}),
		"count too low":       hostile(ab, []string{"x"}, []byte{1, 0, 1, 1, 1}),
		"zero frequency":      hostile(ab, []string{"x"}, []byte{1, 0, 0}),
		"half a posting":      hostile(ab, []string{"x"}, []byte{1, 0}),
		"list missing":        hostile(ab, []string{"x"}),
		"list past the end":   append(hostile(ab, []string{"x"}), 9, 1, 0, 1),
		"trailing bytes":      append(hostile(ab, []string{"x"}, []byte{1, 0, 1}), 0),
	}
	if err := NewIndexer(New(), nil).Restore(hostile(ab, []string{"x"}, []byte{2, 0, 1, 1, 1})); err != nil {
		t.Fatalf("the well-formed case the others break: %v", err)
	}
	for name, blob := range cases {
		t.Run(name, func(t *testing.T) {
			if err := NewIndexer(New(), nil).Restore(blob); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Restore: %v, want ErrBadSnapshot", err)
			}
		})
	}
}

// FuzzIndexSnapshot: whatever the bytes, Restore either installs an index
// whose every list is ascending, inside the doc table and correctly counted,
// and which writes a snapshot that restores to the same bytes, or returns an
// error. It never panics, and allocates at most a small multiple of the
// input.
func FuzzIndexSnapshot(f *testing.F) {
	small := New()
	for i, d := range checkpointDocs()[:6] {
		small.Add(d[0], d[1], d[2])
		if i%4 == 0 {
			small.Refresh()
		}
	}
	f.Add(small.snapshot())
	f.Add(hostile([]string{"a", "b"}, []string{"x", "y"}, []byte{2, 0, 1, 1, 1}, []byte{1, 1, 4}))
	f.Add([]byte(snapshotMagic))
	if raw, err := os.ReadFile("testdata/checkpoint_v1.json"); err == nil {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x := New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := x.restore(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+64<<10 {
			t.Fatalf("restore of %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error %v does not wrap ErrBadSnapshot", err)
			}
			if x.Docs() != 0 {
				t.Fatal("a rejected restore left documents behind")
			}
			return
		}
		checkLists(t, x)
		again := x.snapshot()
		y := New()
		if err := y.restore(again); err != nil {
			t.Fatalf("the restored index writes a snapshot it cannot restore: %v", err)
		}
		if string(y.snapshot()) != string(again) {
			t.Fatal("snapshot does not round-trip")
		}
		x.Query("x", 10)
	})
}

// benchSnapshotIndexer indexes 8 000 articles the way the benchmark's
// single_reads preload writes them: eight factual sentences and a
// reference, ten articles to a body.
func benchSnapshotIndexer() *Indexer {
	gen := corpus.NewGenerator(1)
	sub := NewIndexer(New(), nil)
	var text string
	for i := 0; i < 8000; i++ {
		topic := corpus.AllTopics[(i/10)%len(corpus.AllTopics)]
		if i%10 == 0 {
			var b strings.Builder
			for s := 0; s < 8; s++ {
				b.WriteString(gen.FactualOn(topic).Text)
				b.WriteString(". ")
			}
			fmt.Fprintf(&b, "Filed as b1-%05d.", i/10)
			text = b.String()
		}
		sub.Index.Add(fmt.Sprintf("a%05d", i), string(topic), text)
		if i%64 == 63 {
			sub.Index.Refresh()
		}
	}
	return sub
}

// BenchmarkIndexSnapshot encodes and restores the search checkpoint blob
// of an 8 000-article index (make bench-reopen).
func BenchmarkIndexSnapshot(b *testing.B) {
	sub := benchSnapshotIndexer()
	blob, err := sub.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sub.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "blob_bytes")
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := NewIndexer(New(), nil).Restore(blob); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "blob_bytes")
	})
}

// BenchmarkQuery ranks a page of ten over the 8 000-article index: the
// single_reads search path without HTTP.
func BenchmarkQuery(b *testing.B) {
	x := benchSnapshotIndexer().Index
	gen := corpus.NewGenerator(2)
	var queries []string
	for i := 0; i < 64; i++ {
		queries = append(queries, strings.Join(strings.Fields(gen.Factual().Text)[:3], " "))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.QueryPage(queries[i%len(queries)], 0, 10)
	}
}
