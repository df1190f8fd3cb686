package platform

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/search"
)

// TestSearchReplayMatchesSnapshotRestore pins the search subsystem's
// determinism guarantee end to end: an index rebuilt by replaying the
// chain through the commit bus must rank byte-identically to one
// restored from a checkpoint snapshot — same scores, same order, same
// pagination. If this breaks, a restarted node's
// search results depend on how it recovered.
func TestSearchReplayMatchesSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	author := p.NewActor("replay-author")
	texts := []string{
		"senate passes the annual budget bill after debate",
		"budget shortfall forces the city council to cut transit funding",
		"new vaccine trial reports strong results in early phase",
		"transit strike ends as union and city reach a funding deal",
		"annual science fair draws record attendance downtown",
		"council votes to expand the downtown transit line",
		"early budget projections show a surplus for the first time",
		"vaccine distribution reaches rural clinics ahead of schedule",
	}
	for i, txt := range texts {
		if err := author.PublishNews(fmt.Sprintf("rp-%d", i), corpus.TopicPolitics, txt, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	p.FlushSearch()
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}

	// Node A recovers through the checkpoint fast path: the index is
	// deserialized from the search subscriber's snapshot blob.
	fast, closeFast, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFast()
	if fast.CheckpointHeight() == 0 {
		t.Fatal("fast open did not take the checkpoint path")
	}

	// Node B recovers by full chain replay: every publish flows through
	// the commit bus again and the index is rebuilt from scratch.
	replayDir := t.TempDir()
	raw, err := os.ReadFile(filepath.Join(dir, chainLogName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(replayDir, chainLogName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The chain carries refs; the bodies live off-chain. Copy the blob
	// store so replay can resolve them.
	err = filepath.Walk(filepath.Join(dir, "blobs"), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(filepath.Join(dir, "blobs"), path)
		if err != nil {
			return err
		}
		dst := filepath.Join(replayDir, "blobs", rel)
		if info.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	full, closeFull, err := Open(replayDir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFull()
	if full.CheckpointHeight() != 0 {
		t.Fatal("replay open unexpectedly found a checkpoint")
	}
	full.FlushSearch()

	queries := []string{"budget", "transit funding", "vaccine", "downtown", "annual budget debate"}
	for _, q := range queries {
		for offset := 0; offset < 4; offset += 2 {
			a := fast.SearchPage(q, search.RankBM25, offset, 3)
			b := full.SearchPage(q, search.RankBM25, offset, 3)
			aj, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			bj, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if string(aj) != string(bj) {
				t.Fatalf("query %q offset %d: snapshot-restored and replay-rebuilt rankings diverge:\n  snapshot: %s\n  replay:   %s", q, offset, aj, bj)
			}
			if offset == 0 && a.Total == 0 {
				t.Fatalf("query %q found nothing — test corpus not indexed", q)
			}
		}
	}
}
