package search

import (
	"fmt"
	"os"
	"reflect"
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

// TestCheckpointFromUnpackedIndexRestores: testdata/checkpoint_v1.json was
// written by the index before postings were packed (16 shards, a refresh
// every seven documents). It restores to the answers an index built from
// the same documents gives, and both write it back byte for byte: the
// checkpoint format did not change.
func TestCheckpointFromUnpackedIndexRestores(t *testing.T) {
	blob, err := os.ReadFile("testdata/checkpoint_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSubscriber(New(), nil)
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	built := NewSubscriber(New(), nil)
	var queries []string
	for i, d := range checkpointDocs() {
		built.Index.Add(d[0], d[1], d[2])
		if i%7 == 0 {
			built.Index.Refresh()
		}
		queries = append(queries, d[2])
	}
	built.Index.Refresh()
	queries = append(queries, "filed", "politics budget", "c007")
	for _, ranker := range []Ranker{RankBM25, RankTFIDF} {
		for _, q := range queries {
			want := built.Index.QueryPage(q, ranker, 0, 0)
			got := restored.Index.QueryPage(q, ranker, 0, 0)
			if want.Total == 0 || !reflect.DeepEqual(want, got) {
				t.Fatalf("%s %q: restored index answers %+v, built one %+v", ranker, q, got, want)
			}
		}
	}
	for name, sub := range map[string]*Subscriber{"restored": restored, "built": built} {
		again, err := sub.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(blob) {
			t.Fatalf("the %s index writes a different checkpoint blob", name)
		}
	}
}
