package platform

import (
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/corpus"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/simnet"
	"repro/internal/supplychain"
)

// articleBody builds a multi-chunk body from corpus sentences.
func articleBody(gen *corpus.Generator, sentences int) string {
	var sb strings.Builder
	for i := 0; i < sentences; i++ {
		if i > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString(gen.FactualOn(corpus.TopicPolitics).Text)
	}
	return sb.String()
}

func TestOffChainPublishKeepsBodyOffChain(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.NewGenerator(1)
	body := articleBody(gen, 20)
	a := p.NewActor("author")
	if err := a.PublishNews("art-1", corpus.TopicPolitics, body, nil, ""); err != nil {
		t.Fatal(err)
	}

	// No committed transaction payload carries the body text.
	if err := p.Chain().Walk(0, func(b *ledger.Block) bool {
		for _, tx := range b.Txs {
			if strings.Contains(string(tx.Payload), body[:60]) {
				t.Errorf("tx %s carries the article body inline", tx.ID().Short())
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	it, err := p.Item("art-1")
	if err != nil {
		t.Fatal(err)
	}
	if it.CID == "" || it.Size != len(body) {
		t.Fatalf("item ref = (%q, %d), want cid and size %d", it.CID, it.Size, len(body))
	}
	if it.Text != body {
		t.Fatal("Item did not hydrate the off-chain body")
	}

	// The state holds the reference, not the text, and the graph traces
	// through it.
	gi, err := supplychain.GetItem(p.Engine(), p.Authority(), "art-1")
	if err != nil || gi.Text != "" || gi.CID != it.CID {
		t.Fatalf("stored item = %+v, %v; want the CID and no text", gi, err)
	}
	if _, err := p.Graph().Trace("art-1"); err != nil {
		t.Fatalf("trace through the blob store: %v", err)
	}

	// Full-text search finds the article.
	terms := strings.Join(strings.Fields(body)[:3], " ")
	p.FlushSearch()
	res := p.Search(terms, 5)
	if len(res) == 0 || res[0].ID != "art-1" {
		t.Fatalf("Search(%q) = %v", terms, res)
	}
}

// The news contract still takes a body inline, as older chains carry it.
func TestInlinePublishStillWorks(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := supplychain.PublishPayload("n1", corpus.TopicPolitics, "plain inline statement about the budget", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewActor("author").MustExec("news.publish", payload); err != nil {
		t.Fatal(err)
	}
	it, err := p.Item("n1")
	if err != nil {
		t.Fatal(err)
	}
	if it.CID != "" || it.Text == "" {
		t.Fatalf("inline item = %+v", it)
	}
	p.FlushSearch()
	if res := p.Search("budget", 5); len(res) != 1 || res[0].ID != "n1" {
		t.Fatalf("inline item not searchable: %v", res)
	}
	if p.Blobs().Stats().Blobs != 0 {
		t.Fatal("inline publish wrote to the blob store")
	}
}

// TestFreshNodeFetchesVerifiesAndSearchesOverLossyLink is the PR's
// acceptance scenario: a node that never saw the publish traffic
// receives only the chain (CID references), fetches every body through
// the chunk retrieval protocol over a 5%-loss simnet link, verifies each
// against its chunk root, rebuilds its graph, and can search the
// articles.
func TestFreshNodeFetchesVerifiesAndSearchesOverLossyLink(t *testing.T) {
	miner, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.NewGenerator(7)
	author := miner.NewActor("author")
	bodies := map[string]string{}
	for _, id := range []string{"a1", "a2", "a3"} {
		body := articleBody(gen, 15)
		bodies[id] = body
		if err := author.PublishNews(id, corpus.TopicPolitics, body, nil, ""); err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := New(instrumentedConfig())
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(99)
	cfg := blobstore.FetchConfig{Timeout: 100 * time.Millisecond, Retries: 6}
	src := blobstore.NewPeer(net, "src", miner.Blobs(), cfg)
	dst := blobstore.NewPeer(net, "dst", fresh.Blobs(), cfg)
	if err := src.Bind(); err != nil {
		t.Fatal(err)
	}
	if err := dst.Bind(); err != nil {
		t.Fatal(err)
	}
	net.SetAllLinks(simnet.LinkConfig{
		BaseLatency: 2 * time.Millisecond,
		Jitter:      3 * time.Millisecond,
		LossRate:    0.05,
	})
	fresh.Blobs().SetFallback(func(cid blobstore.CID) ([]byte, bool) {
		var (
			body []byte
			ferr error
			done bool
		)
		dst.Fetch(cid, []simnet.NodeID{"src"}, func(b []byte, e error) {
			body, ferr, done = b, e, true
		})
		net.RunWhile(func() bool { return !done })
		return body, done && ferr == nil
	})

	if err := miner.Chain().Walk(0, func(b *ledger.Block) bool {
		if err := commitBlock(fresh, b, nil); err != nil {
			t.Fatalf("commit: %v", err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Every view took every block.
	if n := viewErrors(t, fresh); n != 0 {
		t.Fatalf("%d view errors", n)
	}
	// The indexer is the only view that reads bodies at commit time
	// (the graph reads them on Trace), and it does so on its own goroutine:
	// let it finish, so that each body crosses the link once and the
	// simulated network is driven from one goroutine at a time.
	fresh.FlushSearch()
	for id, body := range bodies {
		it, err := fresh.Item(id)
		if err != nil {
			t.Fatalf("Item(%s): %v", id, err)
		}
		if it.Text != body {
			t.Fatalf("item %s body mismatch after networked fetch", id)
		}
		terms := strings.Join(strings.Fields(body)[:4], " ")
		res := fresh.Search(terms, 3)
		found := false
		for _, r := range res {
			found = found || r.ID == id
		}
		if !found {
			t.Fatalf("Search(%q) on fresh node missed %s: %v", terms, id, res)
		}
	}
	if st := dst.Stats(); st.Fetched != len(bodies) {
		t.Fatalf("dst stats = %+v, want %d fetched", st, len(bodies))
	}
}

func TestDurableOffChainBodiesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	p, closeFn, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.NewGenerator(3)
	body := articleBody(gen, 12)
	a := p.NewActor("author")
	if err := a.PublishNews("durable-1", corpus.TopicPolitics, body, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}

	re, closeFn2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn2()
	if re.CheckpointHeight() == 0 {
		t.Fatal("reopen did not restore from checkpoint")
	}
	it, err := re.Item("durable-1")
	if err != nil {
		t.Fatal(err)
	}
	if it.Text != body {
		t.Fatal("reopened node cannot hydrate the off-chain body")
	}
	terms := strings.Join(strings.Fields(body)[:3], " ")
	re.FlushSearch()
	res := re.Search(terms, 3)
	if len(res) == 0 || res[0].ID != "durable-1" {
		t.Fatalf("search after reopen = %v", res)
	}
}

func TestOffChainRankingAndPromotion(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.NewGenerator(5)
	fact := gen.FactualOn(corpus.TopicPolitics)
	if err := p.SeedFact("f1", fact.Topic, fact.Text); err != nil {
		t.Fatal(err)
	}
	a := p.NewActor("journalist")
	if err := a.PublishNews("n1", fact.Topic, fact.Text, nil, ""); err != nil {
		t.Fatal(err)
	}
	// Trace-back works because the graph hydrated the off-chain body.
	rank, err := p.RankItem("n1", ranking.MechanismTraceOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !rank.Trace.Rooted || rank.Trace.Score < 0.9 {
		t.Fatalf("trace over off-chain body = %+v", rank.Trace)
	}
}
