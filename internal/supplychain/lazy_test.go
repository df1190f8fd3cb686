package supplychain

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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
	"repro/internal/factdb"
	"repro/internal/telemetry"
)

// bodyStore is the tests' blob store: bodies by a content id, a read
// counter, and a set of ids this "node" does not hold.
type bodyStore struct {
	mu      sync.Mutex
	bodies  map[string]string
	missing map[string]bool
	reads   int
}

func newBodyStore() *bodyStore {
	return &bodyStore{bodies: make(map[string]string), missing: make(map[string]bool)}
}

func (s *bodyStore) put(text string) string {
	sum := sha256.Sum256([]byte(text))
	cid := "cid-" + hex.EncodeToString(sum[:8])
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bodies[cid] = text
	return cid
}

func (s *bodyStore) resolve(cid string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	text, ok := s.bodies[cid]
	if !ok || s.missing[cid] {
		return "", fmt.Errorf("blob %s not found", cid)
	}
	// A fresh copy per read, as a blob store assembling chunks returns.
	return strings.Clone(text), nil
}

// oracleGraph is the keep-everything reference: every item with its full
// text, every similarity and every fact match recomputed on every trace
// (the algorithm the graph ran when it stored hydrated bodies).
type oracleGraph struct {
	items map[string]Item // Text always filled
	facts *factdb.Index
}

// oracleState is the oracle's own per-item walk state, by item id.
type oracleState struct {
	rooted    bool
	score     float64
	depth     int
	next      string // next hop toward the root ("" at the root)
	rootFact  string
	rootMatch float64
}

func (o *oracleGraph) trace(id string) TraceResult {
	memo := make(map[string]oracleState)
	var walk func(id string) oracleState
	walk = func(id string) oracleState {
		if st, ok := memo[id]; ok {
			return st
		}
		it := o.items[id]
		var best oracleState
		if m, ok := o.facts.BestMatch(it.Text); ok && m.Similarity >= MinRootMatch {
			if m.Similarity >= ModificationThreshold || len(it.Parents) == 0 {
				best = oracleState{rooted: true, score: m.Similarity, rootFact: m.Fact.ID, rootMatch: m.Similarity}
			}
		}
		parents := append([]string(nil), it.Parents...)
		sort.Strings(parents)
		for _, p := range parents {
			ps := walk(p)
			if !ps.rooted {
				continue
			}
			score := factdb.Similarity(it.Text, o.items[p].Text) * ps.score
			directTie := best.next == "" && score >= best.score
			if !best.rooted || score > best.score || directTie {
				best = oracleState{rooted: true, score: score, depth: ps.depth + 1, next: p, rootFact: ps.rootFact, rootMatch: ps.rootMatch}
			}
		}
		memo[id] = best
		return best
	}
	st := walk(id)
	res := TraceResult{ItemID: id, Rooted: st.rooted, Score: st.score, Depth: st.depth, Path: []string{id}}
	for cur := id; memo[cur].next != ""; {
		cur = memo[cur].next
		res.Path = append(res.Path, cur)
	}
	if !st.rooted {
		return res
	}
	res.RootFactID = st.rootFact
	if st.rootMatch < ModificationThreshold {
		root := res.Path[len(res.Path)-1]
		res.Originator, res.OriginatorItem = o.items[root].Creator, root
		return res
	}
	for i := len(res.Path) - 2; i >= 0; i-- {
		child, parent := o.items[res.Path[i]], o.items[res.Path[i+1]]
		if factdb.Similarity(child.Text, parent.Text) < ModificationThreshold {
			res.Originator, res.OriginatorItem = child.Creator, child.ID
			break
		}
	}
	return res
}

// lazyWorld is one random scenario: a lazy graph over a body store, the
// oracle beside it, and the moves that grow both.
type lazyWorld struct {
	rng    *rand.Rand
	gen    *corpus.Generator
	facts  *factdb.Index
	store  *bodyStore
	g      *Graph
	oracle *oracleGraph
	ids    []string
}

func newLazyWorld(seed int64) *lazyWorld {
	facts := factdb.NewIndex()
	store := newBodyStore()
	g := NewGraph(facts)
	g.Resolve = store.resolve
	return &lazyWorld{
		rng:    rand.New(rand.NewSource(seed)),
		gen:    corpus.NewGenerator(seed),
		facts:  facts,
		store:  store,
		g:      g,
		oracle: &oracleGraph{items: make(map[string]Item), facts: facts},
	}
}

// addItem publishes one item: an original, a verbatim relay of a parent
// (same body, same CID when off-chain) or a modification of one; off-chain
// or inline; with up to two parents.
func (w *lazyWorld) addItem(t testing.TB) {
	id := fmt.Sprintf("it-%d", len(w.ids))
	it := Item{ID: id, Topic: corpus.TopicPolitics, Creator: fmt.Sprintf("acct-%d", w.rng.Intn(5))}
	var text string
	if len(w.ids) == 0 || w.rng.Intn(4) == 0 {
		if w.rng.Intn(3) == 0 {
			text = w.gen.Fabricate().Text
		} else {
			text = w.gen.FactualOn(corpus.TopicPolitics).Text
		}
	} else {
		parent := w.ids[w.rng.Intn(len(w.ids))]
		it.Parents = []string{parent}
		text = w.oracle.items[parent].Text
		if w.rng.Intn(5) >= 3 {
			text = w.gen.Modify(corpus.Statement{Topic: corpus.TopicPolitics, Text: text}, "").Text
			it.Op = corpus.OpInsert
		}
		if other := w.ids[w.rng.Intn(len(w.ids))]; other != parent && w.rng.Intn(3) == 0 {
			it.Parents = append(it.Parents, other)
		}
	}
	if w.rng.Intn(4) > 0 {
		it.CID, it.Size = w.store.put(text), len(text)
	} else {
		it.Text = text
	}
	if err := w.g.AddItem(it); err != nil {
		t.Fatalf("AddItem(%s): %v", id, err)
	}
	it.Text = text
	w.oracle.items[id] = it
	w.ids = append(w.ids, id)
}

// addFact grows the fact index: with the text of an existing item (so
// roots appear under already-traced items) or with a fresh statement.
func (w *lazyWorld) addFact() {
	text := w.gen.FactualOn(corpus.TopicPolitics).Text
	if len(w.ids) > 0 && w.rng.Intn(2) == 0 {
		text = w.oracle.items[w.ids[w.rng.Intn(len(w.ids))]].Text
	}
	w.facts.Add(factdb.Fact{ID: fmt.Sprintf("fact-%d", w.facts.Len()), Topic: corpus.TopicPolitics, Text: text})
}

func (w *lazyWorld) checkTrace(t testing.TB, g *Graph, id string) {
	t.Helper()
	got, err := g.Trace(id)
	if err != nil {
		t.Fatalf("Trace(%s): %v", id, err)
	}
	if want := w.oracle.trace(id); !reflect.DeepEqual(got, want) {
		t.Fatalf("Trace(%s) diverged from the keep-everything oracle:\ngot  %+v\nwant %+v", id, got, want)
	}
}

// TestLazyTraceEqualsOracle is the equivalence property: whatever the
// order of queries, and however AddItem and fact-index growth interleave
// with them, the lazy graph answers exactly what a graph that keeps every
// text and recomputes everything answers.
func TestLazyTraceEqualsOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		w := newLazyWorld(seed)
		for step := 0; step < 150; step++ {
			switch r := w.rng.Intn(10); {
			case r < 4:
				w.addItem(t)
			case r < 5:
				w.addFact()
			case len(w.ids) > 0:
				w.checkTrace(t, w.g, w.ids[w.rng.Intn(len(w.ids))])
			}
		}
		for _, id := range w.ids {
			w.checkTrace(t, w.g, id)
		}
		// Nothing the graph keeps in memory is an off-chain body.
		for _, it := range w.g.Items() {
			if it.CID != "" && it.Text != "" {
				t.Fatalf("seed %d: item %s holds %d bytes of text beside its CID", seed, it.ID, len(it.Text))
			}
		}
	}
}

// TestSnapshotRestoreTraceIdentical round-trips the graph through its
// checkpoint blob — the one this build writes, and the one the previous
// build wrote, which carried every hydrated body.
func TestSnapshotRestoreTraceIdentical(t *testing.T) {
	w := newLazyWorld(7)
	for i := 0; i < 120; i++ {
		if i%10 == 0 {
			w.addFact()
		}
		w.addItem(t)
	}
	snap, err := (&GraphSubscriber{Graph: w.g}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var written []Item
	if err := json.Unmarshal(snap, &written); err != nil {
		t.Fatal(err)
	}
	for _, it := range written {
		if it.CID != "" && it.Text != "" {
			t.Fatalf("checkpoint blob carries the body of off-chain item %s", it.ID)
		}
	}
	// The previous build's blob: the same items in the same order, every
	// off-chain one with its text filled in.
	hydrated := w.g.Items()
	for i := range hydrated {
		hydrated[i].Text = w.oracle.items[hydrated[i].ID].Text
	}
	old, err := json.Marshal(hydrated)
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{"current": snap, "hydrated": old} {
		g := NewGraph(w.facts)
		g.Resolve = w.store.resolve
		reads := w.store.reads
		if err := (&GraphSubscriber{Graph: g}).Restore(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.store.reads != reads {
			t.Fatalf("%s: Restore read %d bodies, want none", name, w.store.reads-reads)
		}
		if !reflect.DeepEqual(g.Items(), w.g.Items()) {
			t.Fatalf("%s: restored items differ", name)
		}
		for _, id := range w.ids {
			w.checkTrace(t, g, id)
		}
	}
}

// TestTraceReadsEachBodyOnce pins the read-side price: the first trace
// through a chain reads each distinct body once, a repeat reads nothing, a
// verbatim relay shares its parent's similarities, and a grown fact index
// costs one more read per body.
func TestTraceReadsEachBodyOnce(t *testing.T) {
	reg := telemetry.New()
	w := newLazyWorld(3)
	w.g.Instrument(reg)
	w.facts.Add(factdb.Fact{ID: "f", Topic: corpus.TopicPolitics, Text: factText})
	modified := factText + " shocking outrage"
	cidA, cidB := w.store.put(factText), w.store.put(modified)
	mustAdd(t, w.g,
		Item{ID: "a", CID: cidA, Creator: "x"},
		Item{ID: "relay", CID: cidA, Creator: "y", Parents: []string{"a"}},
		Item{ID: "b", CID: cidB, Creator: "z", Parents: []string{"relay"}},
		Item{ID: "b2", CID: cidB, Creator: "z", Parents: []string{"b"}},
	)
	computed := func(kind string) uint64 {
		return reg.CounterVec("trustnews_supplychain_similarity_computed_total", "", "kind").With(kind).Value()
	}
	if _, err := w.g.Trace("b2"); err != nil {
		t.Fatal(err)
	}
	if w.store.reads != 2 || computed("edge") != 1 || computed("root") != 2 {
		t.Fatalf("first trace: %d reads, %d edges, %d roots; want 2 bodies, the one modifying edge, 2 root matches",
			w.store.reads, computed("edge"), computed("root"))
	}
	for _, id := range []string{"b2", "b", "relay", "a"} {
		if _, err := w.g.Trace(id); err != nil {
			t.Fatal(err)
		}
	}
	if w.store.reads != 2 || computed("edge") != 1 || computed("root") != 2 {
		t.Fatalf("repeat traces: %d reads, %d edges, %d roots; want nothing new", w.store.reads, computed("edge"), computed("root"))
	}
	w.facts.Add(factdb.Fact{ID: "g", Topic: corpus.TopicPolitics, Text: "an unrelated record about harvest quotas"})
	if _, err := w.g.Trace("b2"); err != nil {
		t.Fatal(err)
	}
	if w.store.reads != 4 || computed("edge") != 1 || computed("root") != 4 {
		t.Fatalf("after a new fact: %d reads, %d edges, %d roots; want the 2 root matches again, no edge", w.store.reads, computed("edge"), computed("root"))
	}
}

// TestTraceBodyUnavailable: a body this node does not hold fails the trace
// with the typed error, for any item whose answer depends on it — never a
// score over the bodies that happen to be here.
func TestTraceBodyUnavailable(t *testing.T) {
	reg := telemetry.New()
	w := newLazyWorld(5)
	w.g.Instrument(reg)
	w.facts.Add(factdb.Fact{ID: "f", Topic: corpus.TopicPolitics, Text: factText})
	cidA, cidB := w.store.put(factText), w.store.put(factText+" with a shocking twist")
	mustAdd(t, w.g,
		Item{ID: "a", CID: cidA, Creator: "x"},
		Item{ID: "b", CID: cidB, Creator: "y", Parents: []string{"a"}},
		Item{ID: "local", Text: factText, Creator: "z"},
	)
	w.store.missing[cidA] = true
	for _, id := range []string{"a", "b"} {
		res, err := w.g.Trace(id)
		if !errors.Is(err, ErrBodyUnavailable) {
			t.Fatalf("Trace(%s) = %+v, %v; want ErrBodyUnavailable", id, res, err)
		}
		if !reflect.DeepEqual(res, TraceResult{}) {
			t.Fatalf("Trace(%s) returned a partial result with its error: %+v", id, res)
		}
	}
	if _, err := w.g.Trace("local"); err != nil {
		t.Fatalf("an item that needs no missing body: %v", err)
	}
	if got := reg.Counter("trustnews_supplychain_body_unavailable_total", "").Value(); got != 2 {
		t.Fatalf("body_unavailable_total = %d, want 2", got)
	}
	// The body arrives: the same graph answers.
	delete(w.store.missing, cidA)
	if tr, err := w.g.Trace("b"); err != nil || !tr.Rooted {
		t.Fatalf("after the body arrived: %+v, %v", tr, err)
	}
	// Without a resolver every off-chain body is unavailable.
	bare := NewGraph(w.facts)
	mustAdd(t, bare, Item{ID: "a", CID: cidA, Creator: "x"})
	if _, err := bare.Trace("a"); !errors.Is(err, ErrBodyUnavailable) {
		t.Fatalf("no resolver: %v", err)
	}
}

// publishedEvent is the commit event of one block publishing the items.
func publishedEvent(t testing.TB, height uint64, items ...Item) commitbus.CommitEvent {
	t.Helper()
	ev := commitbus.CommitEvent{Height: height}
	for _, it := range items {
		raw, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		ev.Receipts = append(ev.Receipts, contract.Receipt{
			OK:     true,
			Result: raw,
			Events: []contract.Event{{Contract: ContractName, Type: "published", Attrs: map[string]string{"id": it.ID}}},
		})
	}
	return ev
}

// TestSubscriberNeedsNoBody: a validator that holds none of the bodies
// indexes every off-chain item, without an error and without a read.
func TestSubscriberNeedsNoBody(t *testing.T) {
	store := newBodyStore()
	g := NewGraph(newFactIndex())
	g.Resolve = store.resolve
	sub := &GraphSubscriber{Graph: g}
	ev := publishedEvent(t, 0,
		Item{ID: "a", CID: "cid-held-elsewhere", Size: 10, Creator: "x"},
		Item{ID: "b", CID: "cid-held-elsewhere", Size: 10, Creator: "y", Parents: []string{"a"}},
	)
	if err := sub.OnCommit(ev); err != nil {
		t.Fatalf("OnCommit without the bodies: %v", err)
	}
	if g.Len() != 2 || store.reads != 0 {
		t.Fatalf("graph has %d items after %d body reads, want 2 and 0", g.Len(), store.reads)
	}
}

// TestGraphMemoryFollowsStructure builds 20 000 items over 200 distinct
// bodies through the subscriber, traces a tenth of them, and compares the
// heap the graph keeps for 4 KB bodies with the heap it keeps for 64-byte
// ones: structure costs the same, so the two must agree.
func TestGraphMemoryFollowsStructure(t *testing.T) {
	const items, distinct = 20_000, 200
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	build := func(bodySize int) (*Graph, uint64) {
		rng := rand.New(rand.NewSource(11))
		facts := factdb.NewIndex()
		store := newBodyStore()
		cids := make([]string, distinct)
		for i := range cids {
			var sb strings.Builder
			fmt.Fprintf(&sb, "story%d", i)
			for sb.Len() < bodySize {
				fmt.Fprintf(&sb, " word%d", rng.Intn(400))
			}
			cids[i] = store.put(sb.String())
			if i%20 == 0 {
				facts.Add(factdb.Fact{ID: fmt.Sprintf("f%d", i), Text: sb.String()})
			}
		}
		before := heap()
		g := NewGraph(facts)
		g.Resolve = store.resolve
		sub := &GraphSubscriber{Graph: g}
		body := make([]int, items) // which body each item carries
		for i := 0; i < items; i++ {
			it := Item{ID: fmt.Sprintf("it-%d", i), Creator: fmt.Sprintf("acct-%d", i%50)}
			body[i] = i
			if i >= distinct {
				// A relay (same body) of, or a rewrite (another body) of, a
				// recent item: chains stay a few hops deep.
				p := i - 1 - rng.Intn(distinct)
				it.Parents = []string{fmt.Sprintf("it-%d", p)}
				body[i] = body[p]
				if rng.Intn(5) >= 3 {
					body[i] = rng.Intn(distinct)
				}
			}
			it.CID, it.Size = cids[body[i]], bodySize
			if err := sub.OnCommit(publishedEvent(t, uint64(i), it)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < items; i += 10 {
			if _, err := g.Trace(fmt.Sprintf("it-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return g, heap() - before
	}
	gSmall, small := build(64)
	gLarge, large := build(4 << 10)
	t.Logf("graph of %d items: %.1f MB over 64 B bodies, %.1f MB over 4 KB bodies", items, float64(small)/(1<<20), float64(large)/(1<<20))
	if large > small+2<<20 {
		t.Fatalf("graph heap grows with body size: %.1f MB over 64 B bodies, %.1f MB over 4 KB bodies (%d items, %d bodies)",
			float64(small)/(1<<20), float64(large)/(1<<20), items, distinct)
	}
	runtime.KeepAlive(gSmall)
	runtime.KeepAlive(gLarge)
}

// FuzzGraphRestore feeds the graph's checkpoint blob hostile bytes: no
// panic; what is accepted is a DAG whose every parent was restored before
// its child (so no cycle, no unknown parent), no larger than its input,
// holding no off-chain text, and stable under a second round trip.
func FuzzGraphRestore(f *testing.F) {
	w := newLazyWorld(9)
	for i := 0; i < 12; i++ {
		w.addItem(f)
	}
	seed, err := (&GraphSubscriber{Graph: w.g}).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`[{"id":"a","cid":"c","text":"hydrated by an older build","creator":"x","height":1}]`))
	f.Add([]byte(`[{"id":"a","parents":["a"]}]`))
	f.Add([]byte(`[{"id":"a","parents":["b"]},{"id":"b","parents":["a"]}]`))
	f.Add([]byte(`[{"id":"a"},{"id":"a"}]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewGraph(factdb.NewIndex())
		sub := &GraphSubscriber{Graph: g}
		if err := sub.Restore(data); err != nil {
			return
		}
		seen := make(map[string]bool)
		held := 0
		for _, it := range g.Items() {
			for _, p := range it.Parents {
				if !seen[p] {
					t.Fatalf("item %q restored before its parent %q", it.ID, p)
				}
				held += len(p)
			}
			if seen[it.ID] {
				t.Fatalf("item %q restored twice", it.ID)
			}
			seen[it.ID] = true
			if it.CID != "" && it.Text != "" {
				t.Fatalf("item %q holds text beside its CID", it.ID)
			}
			held += len(it.ID) + len(it.CID) + len(it.Text) + len(it.Creator) + len(it.Topic) + len(it.Op)
		}
		if held > len(data) {
			t.Fatalf("restored graph holds %d bytes of strings from a %d-byte blob", held, len(data))
		}
		again, err := sub.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		g2 := NewGraph(factdb.NewIndex())
		if err := (&GraphSubscriber{Graph: g2}).Restore(again); err != nil {
			t.Fatalf("own snapshot does not restore: %v", err)
		}
		if !reflect.DeepEqual(g.Items(), g2.Items()) {
			t.Fatal("snapshot of a restored graph restores to a different graph")
		}
	})
}

// TestConcurrentTraceWhileGraphGrows runs readers against the memos while
// the commit path adds items and facts (the race detector's case), then
// holds the settled graph to the oracle.
func TestConcurrentTraceWhileGraphGrows(t *testing.T) {
	w := newLazyWorld(21)
	for i := 0; i < 20; i++ {
		w.addItem(t)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Only the first 20 ids: w.ids grows under the writer.
				if _, err := w.g.Trace(fmt.Sprintf("it-%d", (i+r)%20)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 200; i++ {
		if i%10 == 0 {
			w.addFact()
		}
		w.addItem(t)
	}
	close(stop)
	wg.Wait()
	for _, id := range w.ids {
		w.checkTrace(t, w.g, id)
	}
}
