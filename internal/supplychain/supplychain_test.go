package supplychain

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/keys"
	"repro/internal/ledger"
)

const factText = "the parliament ratified the border treaty according to the official record"

func newFactIndex(extra ...string) *factdb.Index {
	ix := factdb.NewIndex()
	ix.Add(factdb.Fact{ID: "fact-1", Topic: corpus.TopicPolitics, Text: factText})
	for i, t := range extra {
		ix.Add(factdb.Fact{ID: "fact-x" + strconv.Itoa(i), Topic: corpus.TopicPolitics, Text: t})
	}
	return ix
}

func addr(name string) string { return keys.FromSeed([]byte(name)).Address().String() }

func item(id, creator, text string, op corpus.Op, parents ...string) Item {
	return Item{ID: id, Topic: corpus.TopicPolitics, Text: text, Creator: addr(creator), Parents: parents, Op: op}
}

// graphOf is a graph over the given items, held in memory.
func graphOf(facts FactChecker, items ...Item) *Graph {
	m := make(ItemMap, len(items))
	for _, it := range items {
		m[it.ID] = it
	}
	return NewGraph(m, facts)
}

func TestContractPublishAndGet(t *testing.T) {
	e := contract.NewEngine()
	if err := e.Register(Contract{}); err != nil {
		t.Fatal(err)
	}
	alice := keys.FromSeed([]byte("alice"))
	p, _ := PublishPayload("n1", corpus.TopicPolitics, factText, nil, "")
	tx, _ := ledger.NewTx(alice, 0, "news.publish", p)
	rec := e.ExecuteTx(tx, 7)
	if !rec.OK {
		t.Fatalf("receipt: %+v", rec)
	}
	it, err := GetItem(e, alice.Address(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	if it.Creator != alice.Address().String() || it.Height != 7 {
		t.Fatalf("item=%+v", it)
	}
	if len(rec.Events) != 1 || rec.Events[0].Type != "published" {
		t.Fatalf("events=%+v", rec.Events)
	}
}

func TestContractRejectsMissingParent(t *testing.T) {
	e := contract.NewEngine()
	e.Register(Contract{})
	alice := keys.FromSeed([]byte("alice"))
	p, _ := PublishPayload("n1", corpus.TopicPolitics, "text", []string{"ghost"}, corpus.OpVerbatim)
	tx, _ := ledger.NewTx(alice, 0, "news.publish", p)
	rec := e.ExecuteTx(tx, 1)
	if rec.OK || !strings.Contains(rec.Err, "parent not found") {
		t.Fatalf("receipt: %+v", rec)
	}
}

func TestContractRejectsDuplicateAndEmpty(t *testing.T) {
	e := contract.NewEngine()
	e.Register(Contract{})
	alice := keys.FromSeed([]byte("alice"))
	p, _ := PublishPayload("n1", corpus.TopicPolitics, "text", nil, "")
	tx, _ := ledger.NewTx(alice, 0, "news.publish", p)
	if rec := e.ExecuteTx(tx, 1); !rec.OK {
		t.Fatalf("first publish: %+v", rec)
	}
	tx2, _ := ledger.NewTx(alice, 1, "news.publish", p)
	if rec := e.ExecuteTx(tx2, 1); rec.OK {
		t.Fatal("duplicate accepted")
	}
	empty, _ := PublishPayload("", corpus.TopicPolitics, "", nil, "")
	tx3, _ := ledger.NewTx(alice, 2, "news.publish", empty)
	if rec := e.ExecuteTx(tx3, 1); rec.OK {
		t.Fatal("empty item accepted")
	}
}

func TestContractDefaultsOpToVerbatim(t *testing.T) {
	e := contract.NewEngine()
	e.Register(Contract{})
	alice := keys.FromSeed([]byte("alice"))
	p1, _ := PublishPayload("n1", corpus.TopicPolitics, "text", nil, "")
	tx1, _ := ledger.NewTx(alice, 0, "news.publish", p1)
	e.ExecuteTx(tx1, 1)
	p2, _ := PublishPayload("n2", corpus.TopicPolitics, "text", []string{"n1"}, "")
	tx2, _ := ledger.NewTx(alice, 1, "news.publish", p2)
	e.ExecuteTx(tx2, 1)
	it, _ := GetItem(e, alice.Address(), "n2")
	if it.Op != corpus.OpVerbatim {
		t.Fatalf("op=%q", it.Op)
	}
}

func TestTraceFactualRoot(t *testing.T) {
	g := graphOf(newFactIndex(), item("n1", "alice", factText, ""))
	res, err := g.Trace("n1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rooted || res.Score != 1 || res.Depth != 0 {
		t.Fatalf("res=%+v", res)
	}
	if res.RootFactID != "fact-1" || res.Originator != "" {
		t.Fatalf("res=%+v", res)
	}
}

func TestTraceRelayChainKeepsScore(t *testing.T) {
	g := graphOf(newFactIndex(),
		item("n1", "alice", factText, ""),
		item("n2", "bob", factText, corpus.OpVerbatim, "n1"),
		item("n3", "carol", factText, corpus.OpVerbatim, "n2"),
	)
	res, _ := g.Trace("n3")
	if !res.Rooted || res.Score < 0.999 {
		t.Fatalf("res=%+v", res)
	}
	if res.Originator != "" {
		t.Fatalf("verbatim relays must have no originator: %+v", res)
	}
}

func TestTraceModificationDropsScore(t *testing.T) {
	modified := "SHOCKING you must share this " + factText + " rigged corrupt disaster exposed"
	g := graphOf(newFactIndex(),
		item("n1", "alice", factText, ""),
		item("n2", "mallory", modified, corpus.OpInsert, "n1"),
	)
	r1, _ := g.Trace("n1")
	r2, _ := g.Trace("n2")
	if r2.Score >= r1.Score {
		t.Fatalf("modified score %.3f >= original %.3f", r2.Score, r1.Score)
	}
	if !r2.Rooted {
		t.Fatal("modified item still traces to a factual root")
	}
}

func TestOriginatorAttribution(t *testing.T) {
	// fact -> relay(bob) -> modify(mallory) -> relay(carol): the paper's
	// accountability requirement is that mallory is identified.
	modified := "fake claim entirely different words about a scandal conspiracy plot"
	g := graphOf(newFactIndex(),
		item("n1", "alice", factText, ""),
		item("n2", "bob", factText, corpus.OpVerbatim, "n1"),
		item("n3", "mallory", modified, corpus.OpInsert, "n2"),
		item("n4", "carol", modified, corpus.OpVerbatim, "n3"),
	)
	res, _ := g.Trace("n4")
	if res.Originator != addr("mallory") {
		t.Fatalf("originator=%s want mallory (%s); res=%+v", res.Originator, addr("mallory"), res)
	}
	if res.OriginatorItem != "n3" {
		t.Fatalf("originator item=%s", res.OriginatorItem)
	}
}

func TestTraceUnrootedFabrication(t *testing.T) {
	g := graphOf(newFactIndex(), item("fab", "mallory", "wild invented nonsense claim zebra quantum hoax", ""))
	res, _ := g.Trace("fab")
	if res.Rooted || res.Score != 0 {
		t.Fatalf("res=%+v", res)
	}
}

func TestTraceBestOfMultipleParents(t *testing.T) {
	// A mix item with one factual-rooted parent and one fabricated parent
	// should trace through the better path.
	mix := factText + " moon landing hoax conspiracy"
	g := graphOf(newFactIndex(),
		item("good", "alice", factText, ""),
		item("bad", "mallory", "moon landing hoax conspiracy invented claim", ""),
		item("mix", "dave", mix, corpus.OpMix, "good", "bad"),
	)
	res, _ := g.Trace("mix")
	if !res.Rooted {
		t.Fatal("mix item should trace through the factual parent")
	}
	if res.Path[len(res.Path)-1] != "good" {
		t.Fatalf("path=%v; must root at the factual parent", res.Path)
	}
	if res.Score >= 1 {
		t.Fatalf("mix score=%f; must be penalized", res.Score)
	}
}

func TestTraceMissingItem(t *testing.T) {
	g := graphOf(newFactIndex())
	if _, err := g.Trace("ghost"); !errors.Is(err, ErrItemNotFound) {
		t.Fatalf("want ErrItemNotFound, got %v", err)
	}
}

// The graph holds what the contract admitted and nothing else: a
// duplicate id or an orphan leaves it as it was.
func TestGraphRejectsDuplicateAndOrphan(t *testing.T) {
	e := contract.NewEngine()
	if err := e.Register(Contract{}); err != nil {
		t.Fatal(err)
	}
	g := NewGraph(StateSource(e), newFactIndex())
	alice := keys.FromSeed([]byte("alice"))
	publish := func(nonce uint64, id, text string, parents ...string) contract.Receipt {
		p, _ := PublishPayload(id, corpus.TopicPolitics, text, parents, "")
		tx, _ := ledger.NewTx(alice, nonce, "news.publish", p)
		return e.ExecuteTx(tx, nonce+1)
	}
	if rec := publish(0, "n1", factText); !rec.OK {
		t.Fatalf("publish: %+v", rec)
	}
	if rec := publish(1, "n1", "another text"); rec.OK || !strings.Contains(rec.Err, ErrItemExists.Error()) {
		t.Fatalf("duplicate: %+v", rec)
	}
	if rec := publish(2, "n2", "text", "ghost"); rec.OK || !strings.Contains(rec.Err, ErrParentNotFound.Error()) {
		t.Fatalf("orphan: %+v", rec)
	}
	if g.Len() != 1 {
		t.Fatalf("graph holds %d items, want 1", g.Len())
	}
	if _, err := g.Trace("n2"); !errors.Is(err, ErrItemNotFound) {
		t.Fatalf("trace of the orphan: %v", err)
	}
	if tr, err := g.Trace("n1"); err != nil || !tr.Rooted || tr.Score != 1 {
		t.Fatalf("trace of the first publish: %+v, %v", tr, err)
	}
}

func TestTraceAllAndStats(t *testing.T) {
	g := graphOf(newFactIndex(),
		item("n1", "alice", factText, ""),
		item("n2", "bob", factText, corpus.OpVerbatim, "n1"),
		item("n3", "mallory", "invented garbage claim xyz", ""),
		item("n4", "dave", factText+" extra", corpus.OpInsert, "n2"),
	)
	traces, err := g.TraceAll()
	if err != nil || len(traces) != 4 {
		t.Fatalf("traced %d items, %v", len(traces), err)
	}
	if !traces["n4"].Rooted || traces["n3"].Rooted {
		t.Fatalf("traces: n4=%+v n3=%+v", traces["n4"], traces["n3"])
	}
	s, err := g.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Items != 4 || s.Edges != 2 || s.Roots != 2 || s.MaxDepth != 2 {
		t.Fatalf("stats=%+v", s)
	}
}

func TestExpertsRankFactualCreators(t *testing.T) {
	facts := []string{
		"the senate ratified the border treaty with a margin of 61 to 20",
		"the parliament signed the transparency act in a public session",
		"the city council proposed the budget amendment citing document 401",
	}
	ix := factdb.NewIndex()
	for i, f := range facts {
		ix.Add(factdb.Fact{ID: "f" + strconv.Itoa(i), Topic: corpus.TopicPolitics, Text: f})
	}
	// expert posts three factual items; amateur posts one factual and two
	// fabrications; troll posts fabrications only.
	items := []Item{
		item("a0", "amateur", facts[0], ""),
		item("a1", "amateur", "invented claim about lizard people", ""),
		item("a2", "amateur", "more invented nonsense entirely", ""),
		item("t0", "troll", "deep state hoax claim fabricated", ""),
	}
	for i, f := range facts {
		items = append(items, item("e"+strconv.Itoa(i), "expert", f, ""))
	}
	experts, err := graphOf(ix, items...).Experts(corpus.TopicPolitics, 2)
	if err != nil || len(experts) != 2 {
		t.Fatalf("experts=%+v", experts)
	}
	if experts[0].Account != addr("expert") {
		t.Fatalf("top expert=%s want %s", experts[0].Account, addr("expert"))
	}
	if experts[0].Score <= experts[1].Score {
		t.Fatalf("scores not ordered: %+v", experts)
	}
}

func TestProcessChainWorkflow(t *testing.T) {
	stages := []string{"farm", "processor", "distributor", "retail"}
	pc, err := NewProcessChain(stages, map[string]string{"farm": "farmer", "retail": "shop"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Register("lot-1", "farmer"); err != nil {
		t.Fatal(err)
	}
	if err := pc.Advance("lot-1", "acme-proc", "washed"); err != nil {
		t.Fatal(err)
	}
	if err := pc.Advance("lot-1", "fastship", ""); err != nil {
		t.Fatal(err)
	}
	if pc.Completed("lot-1") {
		t.Fatal("not yet complete")
	}
	if err := pc.Advance("lot-1", "shop", "shelved"); err != nil {
		t.Fatal(err)
	}
	if !pc.Completed("lot-1") {
		t.Fatal("should be complete")
	}
	trace, err := pc.Trace("lot-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 4 || trace[0].Stage != "farm" || trace[3].Stage != "retail" {
		t.Fatalf("trace=%+v", trace)
	}
}

func TestProcessChainEnforcement(t *testing.T) {
	pc, _ := NewProcessChain([]string{"a", "b"}, map[string]string{"a": "alice"})
	if err := pc.Register("x", "bob"); !errors.Is(err, ErrWrongActor) {
		t.Fatalf("want ErrWrongActor, got %v", err)
	}
	pc.Register("x", "alice")
	if err := pc.Register("x", "alice"); !errors.Is(err, ErrAssetExists) {
		t.Fatalf("want ErrAssetExists, got %v", err)
	}
	pc.Advance("x", "anyone", "")
	if err := pc.Advance("x", "anyone", ""); !errors.Is(err, ErrStageOrder) {
		t.Fatalf("want ErrStageOrder after completion, got %v", err)
	}
	if _, err := pc.Trace("ghost"); !errors.Is(err, ErrAssetNotFound) {
		t.Fatalf("want ErrAssetNotFound, got %v", err)
	}
	if _, err := NewProcessChain(nil, nil); !errors.Is(err, ErrNoStages) {
		t.Fatalf("want ErrNoStages, got %v", err)
	}
}

func TestDeepChainTraceDepth(t *testing.T) {
	const depth = 200
	items := []Item{item("n0", "alice", factText, "")}
	for i := 1; i <= depth; i++ {
		items = append(items, item(
			"n"+strconv.Itoa(i), "relay"+strconv.Itoa(i%10), factText,
			corpus.OpVerbatim, "n"+strconv.Itoa(i-1),
		))
	}
	g := graphOf(newFactIndex(), items...)
	res, err := g.Trace("n" + strconv.Itoa(depth))
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != depth {
		t.Fatalf("depth=%d want %d", res.Depth, depth)
	}
	if len(res.Path) != depth+1 {
		t.Fatalf("path len=%d", len(res.Path))
	}
}

// BenchmarkTrace prices the read side of a graph that holds no text: the
// first trace through a chain reads each ancestor's body from the store and
// computes its similarities, a repeat finds them memoised. Every hop
// rewrites the 4 KB article (the worst case: depth+1 distinct bodies),
// except in the relays case, where the whole chain shares one body.
func BenchmarkTrace(b *testing.B) {
	gen := corpus.NewGenerator(1)
	article := func() string {
		var sb strings.Builder
		for sb.Len() < 4<<10 {
			sb.WriteString(gen.FactualOn(corpus.TopicPolitics).Text)
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	facts := factdb.NewIndex()
	for i := 0; i < 100; i++ {
		facts.Add(factdb.Fact{ID: "fact-" + strconv.Itoa(i), Topic: corpus.TopicPolitics, Text: article()})
	}
	bodies := newBodyStore()
	chain := func(depth int, rewrite bool) ItemMap {
		text := facts.Facts()[0].Text
		items := ItemMap{"n0": {ID: "n0", CID: bodies.put(text), Creator: "a"}}
		for hop := 1; hop <= depth; hop++ {
			if rewrite {
				text = gen.Modify(corpus.Statement{Topic: corpus.TopicPolitics, Text: text}, corpus.OpInsert).Text
			}
			id := "n" + strconv.Itoa(hop)
			items[id] = Item{ID: id, CID: bodies.put(text), Creator: "a", Parents: []string{"n" + strconv.Itoa(hop-1)}}
		}
		return items
	}
	cases := []struct {
		name    string
		depth   int
		rewrite bool
		first   bool
	}{
		{"first/depth=1", 1, true, true},
		{"first/depth=8", 8, true, true},
		{"first/depth=8/relays", 8, false, true},
		{"repeat/depth=1", 1, true, false},
		{"repeat/depth=8", 8, true, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			items := chain(c.depth, c.rewrite)
			last := "n" + strconv.Itoa(c.depth)
			newGraph := func() *Graph {
				g := NewGraph(items, facts)
				g.Resolve = bodies.resolve
				return g
			}
			g := newGraph()
			if _, err := g.Trace(last); err != nil {
				b.Fatal(err)
			}
			reads := bodies.reads
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.first {
					b.StopTimer()
					g = newGraph() // forgets what earlier traces computed
					b.StartTimer()
				}
				if _, err := g.Trace(last); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bodies.reads-reads)/float64(b.N), "bodyreads/op")
		})
	}
}

func TestWriteDOT(t *testing.T) {
	g := graphOf(newFactIndex(),
		item("n1", "alice", factText, ""),
		item("n2", "bob", factText, corpus.OpVerbatim, "n1"),
		item("n3", "mallory", "fabricated nonsense entirely unrelated", ""),
		item("n4", "dave", factText+" shocking rigged", corpus.OpInsert, "n2"),
	)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph newschain",
		`"n2" -> "n1" [label="verbatim"]`,
		`"n4" -> "n2" [label="insert"]`,
		"#58a55c", // factual green appears
		"#e05252", // unverifiable red appears
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dot output missing %q:\n%s", want, out)
		}
	}
}

// Property: trace scores are always within [0,1], and a verbatim relay
// never scores above its parent.
func TestTraceScoreBoundsProperty(t *testing.T) {
	f := func(seed int64, depth uint8) bool {
		gen := corpus.NewGenerator(seed)
		ix := factdb.NewIndex()
		fact := gen.Factual()
		ix.Add(factdb.Fact{ID: fact.ID, Topic: fact.Topic, Text: fact.Text})
		text := fact.Text
		items := ItemMap{"n0": {ID: "n0", Topic: fact.Topic, Text: text, Creator: "a"}}
		g := NewGraph(items, ix)
		d := int(depth)%6 + 1
		prevScore := 1.0
		for hop := 1; hop <= d; hop++ {
			op := corpus.OpVerbatim
			if hop%2 == 0 {
				src := corpus.Statement{ID: "x", Topic: fact.Topic, Text: text}
				text = gen.Modify(src, corpus.OpInsert).Text
				op = corpus.OpInsert
			}
			id := "n" + strconv.Itoa(hop)
			items[id] = Item{
				ID: id, Topic: fact.Topic, Text: text, Creator: "a",
				Parents: []string{"n" + strconv.Itoa(hop-1)}, Op: op,
			}
			tr, err := g.Trace(id)
			if err != nil {
				return false
			}
			if tr.Score < 0 || tr.Score > 1 {
				return false
			}
			if op == corpus.OpVerbatim && tr.Score > prevScore+1e-9 {
				return false
			}
			prevScore = tr.Score
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
