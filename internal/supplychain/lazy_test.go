package supplychain

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/store"
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

// sealEvery3 seals the state's memtable every three keys, so a few dozen
// publishes cross many seals and merges.
var sealEvery3 = store.LSMConfig{SealEntries: 3}

// lazyWorld is one scenario: items published through the news contract on
// an engine that seals every three keys, the graph over its state, the
// oracle beside it, and the moves that grow both. pick makes every choice:
// a random source, or the bytes of a fuzz input.
type lazyWorld struct {
	pick     func(n int) int
	gen      *corpus.Generator
	facts    *factdb.Index
	bodies   *bodyStore
	accounts []*keys.KeyPair
	log      *store.MemLog
	e        *contract.Engine
	height   uint64
	g        *Graph
	oracle   *oracleGraph
	ids      []string
}

func newLazyWorld(tb testing.TB, seed int64) *lazyWorld {
	return newWorld(tb, seed, rand.New(rand.NewSource(seed)).Intn)
}

func newWorld(tb testing.TB, seed int64, pick func(n int) int) *lazyWorld {
	w := &lazyWorld{
		pick:   pick,
		gen:    corpus.NewGenerator(seed),
		facts:  factdb.NewIndex(),
		bodies: newBodyStore(),
		log:    store.NewMemLog(),
	}
	for i := 0; i < 5; i++ {
		w.accounts = append(w.accounts, keys.FromSeed([]byte(fmt.Sprintf("acct-%d", i))))
	}
	w.oracle = &oracleGraph{items: make(map[string]Item), facts: w.facts}
	w.open(tb, nil)
	return w
}

// open starts an engine on the world's state log — from a checkpoint
// manifest, or empty — and a graph over it.
func (w *lazyWorld) open(tb testing.TB, manifest []byte) {
	tb.Helper()
	e := contract.NewEngineWith(w.log, sealEvery3)
	tb.Cleanup(func() { e.Close() })
	if err := e.Register(Contract{}); err != nil {
		tb.Fatal(err)
	}
	if manifest != nil {
		if err := e.RestoreStateCheckpoint(manifest); err != nil {
			tb.Fatal(err)
		}
	}
	w.e = e
	w.g = NewGraph(StateSource(e), w.facts)
	w.g.Resolve = w.bodies.resolve
}

// reopen checkpoints the state and opens a new engine and graph from the
// manifest, as a node does at restart.
func (w *lazyWorld) reopen(tb testing.TB) {
	tb.Helper()
	manifest, err := w.e.StateCheckpoint()
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.e.Close(); err != nil {
		tb.Fatal(err)
	}
	w.open(tb, manifest)
}

// publish commits one item, signed by kp, through the news contract as a
// block of its own; the oracle keeps it with its text.
func (w *lazyWorld) publish(tb testing.TB, kp *keys.KeyPair, it Item, text string) {
	tb.Helper()
	var payload []byte
	var err error
	if it.CID != "" {
		payload, err = PublishRefPayload(it.ID, it.Topic, it.CID, it.Size, it.Parents, it.Op)
	} else {
		payload, err = PublishPayload(it.ID, it.Topic, it.Text, it.Parents, it.Op)
	}
	if err != nil {
		tb.Fatal(err)
	}
	tx, err := ledger.NewTx(kp, 0, "news.publish", payload)
	if err != nil {
		tb.Fatal(err)
	}
	w.height++
	if rec := w.e.ExecuteTx(tx, w.height); !rec.OK {
		tb.Fatalf("publish %s: %s", it.ID, rec.Err)
	}
	it.Text, it.Creator = text, kp.Address().String()
	w.oracle.items[it.ID] = it
	w.ids = append(w.ids, it.ID)
}

// addItem publishes one item: an original, a verbatim relay of a parent
// (same body, same CID when off-chain) or a modification of one; off-chain
// or inline; with up to two parents.
func (w *lazyWorld) addItem(tb testing.TB) {
	id := fmt.Sprintf("it-%d", len(w.ids))
	it := Item{ID: id, Topic: corpus.TopicPolitics}
	kp := w.accounts[w.pick(len(w.accounts))]
	var text string
	if len(w.ids) == 0 || w.pick(4) == 0 {
		if w.pick(3) == 0 {
			text = w.gen.Fabricate().Text
		} else {
			text = w.gen.FactualOn(corpus.TopicPolitics).Text
		}
	} else {
		parent := w.ids[w.pick(len(w.ids))]
		it.Parents = []string{parent}
		text = w.oracle.items[parent].Text
		if w.pick(5) >= 3 {
			text = w.gen.Modify(corpus.Statement{Topic: corpus.TopicPolitics, Text: text}, "").Text
			it.Op = corpus.OpInsert
		}
		if other := w.ids[w.pick(len(w.ids))]; other != parent && w.pick(3) == 0 {
			it.Parents = append(it.Parents, other)
		}
	}
	if w.pick(4) > 0 {
		it.CID, it.Size = w.bodies.put(text), len(text)
	} else {
		it.Text = text
	}
	w.publish(tb, kp, it, text)
}

// addFact grows the fact index: with the text of an existing item (so
// roots appear under already-traced items) or with a fresh statement.
func (w *lazyWorld) addFact() {
	text := w.gen.FactualOn(corpus.TopicPolitics).Text
	if len(w.ids) > 0 && w.pick(2) == 0 {
		text = w.oracle.items[w.ids[w.pick(len(w.ids))]].Text
	}
	w.facts.Add(factdb.Fact{ID: fmt.Sprintf("fact-%d", w.facts.Len()), Topic: corpus.TopicPolitics, Text: text})
}

// step makes one random move: publish, grow the facts, or trace an item
// and hold it to the oracle.
func (w *lazyWorld) step(tb testing.TB) {
	switch r := w.pick(10); {
	case r < 4:
		w.addItem(tb)
	case r < 5:
		w.addFact()
	case len(w.ids) > 0:
		w.checkTrace(tb, w.ids[w.pick(len(w.ids))])
	}
}

func (w *lazyWorld) checkTrace(tb testing.TB, id string) {
	tb.Helper()
	got, err := w.g.Trace(id)
	if err != nil {
		tb.Fatalf("Trace(%s): %v", id, err)
	}
	if want := w.oracle.trace(id); !reflect.DeepEqual(got, want) {
		tb.Fatalf("Trace(%s) diverged from the keep-everything oracle:\ngot  %+v\nwant %+v", id, got, want)
	}
}

// checkAll holds every item's trace to the oracle, then does it again on
// an engine reopened from the state's checkpoint manifest.
func (w *lazyWorld) checkAll(tb testing.TB) {
	tb.Helper()
	for _, id := range w.ids {
		w.checkTrace(tb, id)
	}
	w.reopen(tb)
	for _, id := range w.ids {
		w.checkTrace(tb, id)
	}
	if got := w.g.Len(); got != len(w.ids) {
		tb.Fatalf("Len() = %d after reopen, want %d", got, len(w.ids))
	}
}

// TestLazyTraceEqualsOracle is the equivalence property: whatever the
// order of queries, and however publishes and fact-index growth interleave
// with them, the graph read from state — across the state's seals and
// merges, and after a reopen from its checkpoint — answers exactly what a
// graph that keeps every text and recomputes everything answers.
func TestLazyTraceEqualsOracle(t *testing.T) {
	merges := 0
	for seed := int64(1); seed <= 40; seed++ {
		w := newLazyWorld(t, seed)
		for step := 0; step < 150; step++ {
			w.step(t)
		}
		before := w.e
		w.checkAll(t) // closes before, waiting for its merges
		merges += before.StateStats().Merges
	}
	if merges == 0 {
		t.Fatal("no state merge ran under any seed")
	}
}

// FuzzTraceFromState turns bytes into a DAG of publishes — originals,
// verbatim relays and rewrites with up to two parents, inline and off-chain
// bodies — interleaved with fact additions and traces, all through the
// news contract on an engine that seals every three keys. Every trace on
// the way, and every item's trace at the end and after a reopen, equals
// the keep-everything oracle.
func FuzzTraceFromState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte("relay relay relay relay relay"))
	f.Add([]byte{1, 3, 1, 0, 1, 9, 2, 4, 0, 7, 1, 1, 0, 2, 3, 1, 8, 8, 0, 1, 2})
	f.Add([]byte{3, 0, 0, 1, 3, 1, 1, 1, 3, 0, 2, 0, 4, 2, 1, 9, 9, 9})
	f.Add([]byte("facts grow under traced items: ffff tttt ffff tttt"))
	f.Add([]byte{2, 2, 2, 2, 3, 1, 0, 1, 3, 2, 1, 0, 3, 1, 1, 0, 2, 0, 1, 1, 0, 5, 4, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		next := 0
		pick := func(n int) int {
			if next >= len(data) {
				return 0
			}
			next++
			return int(data[next-1]) % n
		}
		w := newWorld(t, 1, pick)
		for next < len(data) {
			w.step(t)
		}
		w.checkAll(t)
	})
}

// TestTraceReadsEachBodyOnce pins the read-side price: the first trace
// through a chain reads each distinct body once, a repeat reads nothing, a
// verbatim relay shares its parent's similarities, and a grown fact index
// costs one more read per body.
func TestTraceReadsEachBodyOnce(t *testing.T) {
	reg := telemetry.New()
	facts, bodies := newFactIndex(), newBodyStore()
	modified := factText + " shocking outrage"
	cidA, cidB := bodies.put(factText), bodies.put(modified)
	g := graphOf(facts,
		Item{ID: "a", CID: cidA, Creator: "x"},
		Item{ID: "relay", CID: cidA, Creator: "y", Parents: []string{"a"}},
		Item{ID: "b", CID: cidB, Creator: "z", Parents: []string{"relay"}},
		Item{ID: "b2", CID: cidB, Creator: "z", Parents: []string{"b"}},
	)
	g.Resolve = bodies.resolve
	g.Instrument(reg)
	computed := func(kind string) uint64 {
		return reg.CounterVec("trustnews_supplychain_similarity_computed_total", "", "kind").With(kind).Value()
	}
	if _, err := g.Trace("b2"); err != nil {
		t.Fatal(err)
	}
	if bodies.reads != 2 || computed("edge") != 1 || computed("root") != 2 {
		t.Fatalf("first trace: %d reads, %d edges, %d roots; want 2 bodies, the one modifying edge, 2 root matches",
			bodies.reads, computed("edge"), computed("root"))
	}
	for _, id := range []string{"b2", "b", "relay", "a"} {
		if _, err := g.Trace(id); err != nil {
			t.Fatal(err)
		}
	}
	if bodies.reads != 2 || computed("edge") != 1 || computed("root") != 2 {
		t.Fatalf("repeat traces: %d reads, %d edges, %d roots; want nothing new", bodies.reads, computed("edge"), computed("root"))
	}
	facts.Add(factdb.Fact{ID: "g", Topic: corpus.TopicPolitics, Text: "an unrelated record about harvest quotas"})
	if _, err := g.Trace("b2"); err != nil {
		t.Fatal(err)
	}
	if bodies.reads != 4 || computed("edge") != 1 || computed("root") != 4 {
		t.Fatalf("after a new fact: %d reads, %d edges, %d roots; want the 2 root matches again, no edge", bodies.reads, computed("edge"), computed("root"))
	}
}

// TestTraceBodyUnavailable: a body this node does not hold fails the trace
// with the typed error, for any item whose answer depends on it — never a
// score over the bodies that happen to be here.
func TestTraceBodyUnavailable(t *testing.T) {
	reg := telemetry.New()
	facts, bodies := newFactIndex(), newBodyStore()
	cidA, cidB := bodies.put(factText), bodies.put(factText+" with a shocking twist")
	items := []Item{
		{ID: "a", CID: cidA, Creator: "x"},
		{ID: "b", CID: cidB, Creator: "y", Parents: []string{"a"}},
		{ID: "local", Text: factText, Creator: "z"},
	}
	g := graphOf(facts, items...)
	g.Resolve = bodies.resolve
	g.Instrument(reg)
	bodies.missing[cidA] = true
	for _, id := range []string{"a", "b"} {
		res, err := g.Trace(id)
		if !errors.Is(err, ErrBodyUnavailable) {
			t.Fatalf("Trace(%s) = %+v, %v; want ErrBodyUnavailable", id, res, err)
		}
		if !reflect.DeepEqual(res, TraceResult{}) {
			t.Fatalf("Trace(%s) returned a partial result with its error: %+v", id, res)
		}
	}
	if _, err := g.Trace("local"); err != nil {
		t.Fatalf("an item that needs no missing body: %v", err)
	}
	if _, err := g.Trace("ghost"); !errors.Is(err, ErrItemNotFound) {
		t.Fatalf("unknown item: %v", err)
	}
	if got := reg.Counter("trustnews_supplychain_body_unavailable_total", "").Value(); got != 2 {
		t.Fatalf("body_unavailable_total = %d, want 2 (an unknown item is not a missing body)", got)
	}
	// The body arrives: the same graph answers.
	delete(bodies.missing, cidA)
	if tr, err := g.Trace("b"); err != nil || !tr.Rooted {
		t.Fatalf("after the body arrived: %+v, %v", tr, err)
	}
	// Without a resolver every off-chain body is unavailable.
	if _, err := graphOf(facts, items...).Trace("a"); !errors.Is(err, ErrBodyUnavailable) {
		t.Fatalf("no resolver: %v", err)
	}
}

// TestSubscriberNeedsNoBody: a validator that holds none of the bodies
// has every off-chain item on its graph — the state is all the graph
// reads — without an error and without a read; only a trace needs them.
func TestSubscriberNeedsNoBody(t *testing.T) {
	w := newLazyWorld(t, 1)
	w.publish(t, w.accounts[0], Item{ID: "a", CID: "cid-held-elsewhere", Size: 10}, "")
	w.publish(t, w.accounts[1], Item{ID: "b", CID: "cid-held-elsewhere", Size: 10, Parents: []string{"a"}}, "")
	if w.g.Len() != 2 || w.bodies.reads != 0 {
		t.Fatalf("graph has %d items after %d body reads, want 2 and 0", w.g.Len(), w.bodies.reads)
	}
	if _, err := w.g.Trace("b"); !errors.Is(err, ErrBodyUnavailable) {
		t.Fatalf("trace without the body: %v", err)
	}
}

// TestGraphMemoryFollowsStructure builds 20 000 items over 200 distinct
// bodies, traces a tenth of them, and compares the heap the items and the
// graph's memos take for 4 KB bodies with what they take for 64-byte ones:
// the memos hold no body, so the two must agree.
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
		bodies := newBodyStore()
		cids := make([]string, distinct)
		for i := range cids {
			var sb strings.Builder
			fmt.Fprintf(&sb, "story%d", i)
			for sb.Len() < bodySize {
				fmt.Fprintf(&sb, " word%d", rng.Intn(400))
			}
			cids[i] = bodies.put(sb.String())
			if i%20 == 0 {
				facts.Add(factdb.Fact{ID: fmt.Sprintf("f%d", i), Text: sb.String()})
			}
		}
		before := heap()
		m := make(ItemMap, items)
		g := NewGraph(m, facts)
		g.Resolve = bodies.resolve
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
			m[it.ID] = it
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
	t.Logf("%d items and their graph: %.1f MB over 64 B bodies, %.1f MB over 4 KB bodies", items, float64(small)/(1<<20), float64(large)/(1<<20))
	if large > small+2<<20 {
		t.Fatalf("graph heap grows with body size: %.1f MB over 64 B bodies, %.1f MB over 4 KB bodies (%d items, %d bodies)",
			float64(small)/(1<<20), float64(large)/(1<<20), items, distinct)
	}
	runtime.KeepAlive(gSmall)
	runtime.KeepAlive(gLarge)
}

// TestConcurrentTraceWhileGraphGrows runs readers against the state and
// the memos while the commit path publishes items and grows the facts (the
// race detector's case), then holds the settled graph to the oracle.
func TestConcurrentTraceWhileGraphGrows(t *testing.T) {
	w := newLazyWorld(t, 21)
	for i := 0; i < 20; i++ {
		w.addItem(t)
	}
	g := w.g
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
				if _, err := g.Trace(fmt.Sprintf("it-%d", (i+r)%20)); err != nil {
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
	w.checkAll(t)
}
