package supplychain

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/keys"
	"repro/internal/telemetry"
)

// FactChecker answers whether a text matches the factual database. The
// factdb.Index satisfies it.
type FactChecker interface {
	Contains(text string) bool
	BestMatch(text string) (factdb.Match, bool)
	// Len counts the facts held. Facts are only ever added, so a changed
	// Len is the graph's signal that memoised fact matches are stale.
	Len() int
}

// ErrBodyUnavailable is returned by Trace when an article body the answer
// depends on cannot be read on this node (a body lives where the client
// uploaded it). The trace is refused whole: a score computed over the
// bodies that happen to be local would be a different, silently wrong
// number.
var ErrBodyUnavailable = errors.New("supplychain: article body unavailable on this node")

// TraceResult is the outcome of tracing one item back toward the factual
// database (paper §VI: "the trace distance of graph from its root to the
// current reported news and the degree of the modifications ... can then be
// used to rank the factualness of the news").
type TraceResult struct {
	ItemID string `json:"itemId"`
	// Rooted reports whether any ancestry path reaches a factual root.
	Rooted bool `json:"rooted"`
	// Score is the factualness in [0,1]: the best path's product of
	// per-hop text similarities times the root's factual match quality.
	Score float64 `json:"score"`
	// Depth is the hop count of the best path (0 for a factual root).
	Depth int `json:"depth"`
	// Path lists item ids from the item back to its best root.
	Path []string `json:"path"`
	// RootFactID is the matched fact id when Rooted.
	RootFactID string `json:"rootFactId,omitempty"`
	// Originator is the creator address of the first node on the best
	// path (walking from the root outward) that substantially modified
	// its parent's content — the paper's accountability target. Empty if
	// no substantial modification happened on the path.
	Originator string `json:"originator,omitempty"`
	// OriginatorItem is the item where the modification happened.
	OriginatorItem string `json:"originatorItem,omitempty"`
}

// ModificationThreshold is the per-hop similarity below which a hop counts
// as a substantial modification for originator attribution.
const ModificationThreshold = 0.9

// MinRootMatch is the minimum similarity to a stored fact for an item to
// count as directly rooted in the factual database. Below it, an item with
// no rooted parents is "unverifiable" — the paper's second group of news
// that "can only be traced back into some unverified news data sources".
const MinRootMatch = 0.3

// Graph is the in-memory news supply-chain DAG. It is built either
// incrementally (AddItem, as the platform indexes committed blocks) or in
// bulk from contract state (Load).
//
// The graph holds structure, not text. Every validator keeps it for every
// committed item, so an item costs its id and a fixed-size node: creator,
// CID, topic and operator are numbers into a table of the distinct strings
// seen (an account, a story relayed ten times, a topic are each stored
// once), edges are node indexes, and an off-chain body is not held at all —
// Trace reads the bodies it needs through Resolve. What Trace derives from
// bodies is memoised per body, not per item, so every item that shares a
// CID shares its similarities and a story's text is read once however many
// times it was relayed.
type Graph struct {
	// Resolve reads an off-chain body by content id. Set it before the
	// first Trace of an item that has a CID; without it such a trace
	// answers ErrBodyUnavailable.
	Resolve func(cid string) (string, error)

	mu sync.RWMutex
	// nodes holds the items in insertion order: parents precede children
	// (which is also the checkpoint order).
	nodes []node
	byID  map[string]int32
	// strs is the table of distinct creator, CID, topic and operator
	// strings; strs[0] is "".
	strs   []string
	strIdx map[string]uint32
	facts  FactChecker

	// memoMu guards what Trace has computed from bodies so far. Both maps
	// are filled on first use and only ever hold pure functions of their
	// keys (and, for roots, of the fact index at factsLen).
	memoMu sync.Mutex
	// edges holds the text similarity of a (child body, parent body) pair;
	// it never goes stale.
	edges map[edgeKey]float64
	// roots holds each body's best fact match while the fact index has
	// factsLen facts; a changed FactChecker.Len drops all of it.
	roots    map[bodyKey]rootMatch
	factsLen int

	tm graphMetrics
}

// node is one item as the graph keeps it.
type node struct {
	id   string
	text string // inline body; "" when the body is off-chain
	// cid, creator, topic and op index Graph.strs (0: none).
	cid, creator, topic, op uint32
	size                    int
	height                  uint64
	parents, children       []int32 // node indexes, parents in declared order
}

// bodyKey names one article body: the strs index of an off-chain body's
// CID, or minus (node index + 1) for an inline body, which only that item
// has.
type bodyKey int64

func (g *Graph) keyOf(i int32) bodyKey {
	if cid := g.nodes[i].cid; cid != 0 {
		return bodyKey(cid)
	}
	return -bodyKey(i) - 1
}

type edgeKey struct{ child, parent bodyKey }

// rootMatch is a body's best match in the fact index (ok false: none).
type rootMatch struct {
	factID string
	sim    float64
	ok     bool
}

// graphMetrics counts the lazy work (nil until Instrument; nil-safe).
type graphMetrics struct {
	edgeComputed    *telemetry.Counter
	rootComputed    *telemetry.Counter
	bodyUnavailable *telemetry.Counter
}

// Instrument registers the graph's metrics on reg (nil disables).
func (g *Graph) Instrument(reg *telemetry.Registry) {
	computed := reg.CounterVec("trustnews_supplychain_similarity_computed_total", "Similarities Trace computed from article bodies instead of finding memoised, by kind (edge: child against parent; root: body against the fact index).", "kind")
	g.tm = graphMetrics{
		edgeComputed:    computed.With("edge"),
		rootComputed:    computed.With("root"),
		bodyUnavailable: reg.Counter("trustnews_supplychain_body_unavailable_total", "Traces refused because a body they depend on is not on this node."),
	}
}

// NewGraph creates an empty graph over the given factual database view.
func NewGraph(facts FactChecker) *Graph {
	g := &Graph{facts: facts}
	g.clear(0)
	return g
}

// clear empties the graph and its memos, sized for n items. Caller holds
// g.mu, or owns g.
func (g *Graph) clear(n int) {
	g.nodes = make([]node, 0, n)
	g.byID = make(map[string]int32, n)
	g.strs = []string{""}
	g.strIdx = map[string]uint32{"": 0}
	g.memoMu.Lock()
	g.edges = make(map[edgeKey]float64)
	g.roots = make(map[bodyKey]rootMatch)
	g.memoMu.Unlock()
}

// intern returns the table index of s, adding it on first sight.
func (g *Graph) intern(s string) uint32 {
	if i, ok := g.strIdx[s]; ok {
		return i
	}
	i := uint32(len(g.strs))
	g.strs = append(g.strs, s)
	g.strIdx[s] = i
	return i
}

// Load builds a graph from all committed news items in the engine.
func Load(e *contract.Engine, asker keys.Address, facts FactChecker) (*Graph, error) {
	items, err := ListItems(e, asker)
	if err != nil {
		return nil, err
	}
	g := NewGraph(facts)
	for i := range items {
		if err := g.AddItem(items[i]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// AddItem inserts one item. Parents must already be present (the contract
// guarantees commit order satisfies this). An off-chain item is stored
// without text — a Text beside a CID (a hydrated item, an old checkpoint)
// is dropped — and nothing is read or computed here: AddItem runs on the
// commit path of every validator, including those that do not hold the
// body.
func (g *Graph) AddItem(it Item) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.byID[it.ID]; ok {
		return fmt.Errorf("%w: %s", ErrItemExists, it.ID)
	}
	var parents []int32
	if len(it.Parents) > 0 {
		parents = make([]int32, len(it.Parents))
		for k, p := range it.Parents {
			pi, ok := g.byID[p]
			if !ok {
				return fmt.Errorf("%w: %s (child %s)", ErrParentNotFound, p, it.ID)
			}
			parents[k] = pi
		}
	}
	n := node{
		id:      it.ID,
		cid:     g.intern(it.CID),
		creator: g.intern(it.Creator),
		topic:   g.intern(string(it.Topic)),
		op:      g.intern(string(it.Op)),
		size:    it.Size,
		height:  it.Height,
		parents: parents,
	}
	if it.CID == "" {
		n.text = it.Text
	}
	idx := int32(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.byID[it.ID] = idx
	for _, pi := range parents {
		g.nodes[pi].children = append(g.nodes[pi].children, idx)
	}
	return nil
}

// item rebuilds the Item a node was added as. Caller holds the lock.
func (g *Graph) item(i int32) Item {
	n := &g.nodes[i]
	it := Item{
		ID:      n.id,
		Topic:   corpus.Topic(g.strs[n.topic]),
		Text:    n.text,
		CID:     g.strs[n.cid],
		Size:    n.size,
		Creator: g.strs[n.creator],
		Op:      corpus.Op(g.strs[n.op]),
		Height:  n.height,
	}
	for _, p := range n.parents {
		it.Parents = append(it.Parents, g.nodes[p].id)
	}
	return it
}

// Items returns every item in insertion order (the checkpoint snapshot
// format: parents always precede children).
func (g *Graph) Items() []Item {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Item, len(g.nodes))
	for i := range g.nodes {
		out[i] = g.item(int32(i))
	}
	return out
}

// Reset replaces the graph contents with the given items, added in order.
func (g *Graph) Reset(items []Item) error {
	g.mu.Lock()
	g.clear(len(items))
	g.mu.Unlock()
	for _, it := range items {
		if err := g.AddItem(it); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of items.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// Item returns an item by id.
func (g *Graph) Item(id string) (Item, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.byID[id]
	if !ok {
		return Item{}, fmt.Errorf("%w: %s", ErrItemNotFound, id)
	}
	return g.item(i), nil
}

// TopicItems returns the ids of the items on a topic, in commit order.
func (g *Graph) TopicItems(topic corpus.Topic) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	t, ok := g.strIdx[string(topic)]
	if !ok {
		return nil
	}
	var out []string
	for i := range g.nodes {
		if g.nodes[i].topic == t {
			out = append(out, g.nodes[i].id)
		}
	}
	return out
}

// Children returns the ids deriving directly from an item.
func (g *Graph) Children(id string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.byID[id]
	if !ok {
		return nil
	}
	var out []string
	for _, c := range g.nodes[i].children {
		out = append(out, g.nodes[c].id)
	}
	return out
}

// traceState is one node's best-known trace during the memoized walk.
type traceState struct {
	rooted    bool
	score     float64
	depth     int
	next      int32 // next hop toward the root (-1 at the root)
	rootFact  string
	rootMatch float64
}

// tracer is the state of one Trace call: the per-item memo of the DAG
// walk, and every body read so far so that a call reads none twice.
type tracer struct {
	g      *Graph
	memo   map[int32]traceState
	bodies map[uint32]string // by CID index
}

// Trace ranks one item by walking its ancestry to the factual database.
// Similarities come from the graph's memo where an earlier call left them
// and from the bodies otherwise: the first trace through an ancestor reads
// its body once, later ones read nothing. If a body is needed and this
// node does not hold it the error wraps ErrBodyUnavailable.
func (g *Graph) Trace(id string) (TraceResult, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	start, ok := g.byID[id]
	if !ok {
		return TraceResult{}, fmt.Errorf("%w: %s", ErrItemNotFound, id)
	}
	t := tracer{g: g, memo: make(map[int32]traceState)}
	st, err := t.trace(start)
	if err != nil {
		g.tm.bodyUnavailable.Inc()
		return TraceResult{}, err
	}

	res := TraceResult{ItemID: id, Rooted: st.rooted, Score: st.score, Depth: st.depth}
	// Reconstruct the best path.
	path := []int32{start}
	for cur := start; t.memo[cur].next >= 0; {
		cur = t.memo[cur].next
		path = append(path, cur)
	}
	for _, i := range path {
		res.Path = append(res.Path, g.nodes[i].id)
	}
	if st.rooted {
		res.RootFactID = st.rootFact
		// Originator: walk the path from the root outward and report the
		// creator of the first substantially-modifying item. A root that
		// itself imperfectly matches the factual database was modified by
		// its own creator.
		if st.rootMatch < ModificationThreshold {
			root := &g.nodes[path[len(path)-1]]
			res.Originator = g.strs[root.creator]
			res.OriginatorItem = root.id
		} else {
			for i := len(path) - 2; i >= 0; i-- {
				// Every edge of the path was computed by the walk above, so
				// this cannot miss a body.
				if sim, _ := t.edgeSim(path[i], path[i+1]); sim < ModificationThreshold {
					child := &g.nodes[path[i]]
					res.Originator = g.strs[child.creator]
					res.OriginatorItem = child.id
					break
				}
			}
		}
	}
	return res, nil
}

// trace computes the best traceState for an item, memoized over the DAG
// (a parent's index is below its child's, so the recursion ends). Caller
// holds the read lock.
func (t *tracer) trace(i int32) (traceState, error) {
	if st, ok := t.memo[i]; ok {
		return st, nil
	}

	g := t.g
	best := traceState{next: -1}

	// The item itself may match the factual database (it IS a fact or a
	// near-verbatim copy of one).
	m, err := t.rootMatch(i)
	if err != nil {
		return traceState{}, err
	}
	if m.ok && m.sim >= MinRootMatch {
		if m.sim >= ModificationThreshold || len(g.nodes[i].parents) == 0 {
			best = traceState{rooted: true, score: m.sim, next: -1, rootFact: m.factID, rootMatch: m.sim}
		}
	}

	// Or a parent path may score higher: score = hopSim * parentScore.
	// Parents are visited in id order for deterministic tie-breaking.
	parents := g.nodes[i].parents
	if len(parents) > 1 {
		parents = append([]int32(nil), parents...)
		sort.Slice(parents, func(a, b int) bool { return g.nodes[parents[a]].id < g.nodes[parents[b]].id })
	}
	for _, p := range parents {
		ps, err := t.trace(p)
		if err != nil {
			return traceState{}, err
		}
		if !ps.rooted {
			continue
		}
		sim, err := t.edgeSim(i, p)
		if err != nil {
			return traceState{}, err
		}
		score := sim * ps.score
		// A parent path wins ties against the direct factual match so the
		// result carries the full declared provenance (a verbatim relay of
		// a fact scores 1.0 either way, but the path matters for
		// propagation analysis).
		directTie := best.next < 0 && score >= best.score
		if !best.rooted || score > best.score || directTie {
			best = traceState{
				rooted:    true,
				score:     score,
				depth:     ps.depth + 1,
				next:      p,
				rootFact:  ps.rootFact,
				rootMatch: ps.rootMatch,
			}
		}
	}
	t.memo[i] = best
	return best, nil
}

// body returns an item's text: its own for an inline item, read through
// Resolve (once per Trace call) for an off-chain one.
func (t *tracer) body(i int32) (string, error) {
	n := &t.g.nodes[i]
	if n.cid == 0 {
		return n.text, nil
	}
	if text, ok := t.bodies[n.cid]; ok {
		return text, nil
	}
	cid := t.g.strs[n.cid]
	if t.g.Resolve == nil {
		return "", fmt.Errorf("%w: item %s body %s: no resolver", ErrBodyUnavailable, n.id, cid)
	}
	text, err := t.g.Resolve(cid)
	if err != nil {
		return "", fmt.Errorf("%w: item %s: %v", ErrBodyUnavailable, n.id, err)
	}
	if t.bodies == nil {
		t.bodies = make(map[uint32]string)
	}
	t.bodies[n.cid] = text
	return text, nil
}

// edgeSim returns the text similarity of a child and one of its parents.
// A verbatim relay — both name the same CID — is 1.0 by definition and
// needs no body.
func (t *tracer) edgeSim(child, parent int32) (float64, error) {
	g := t.g
	key := edgeKey{g.keyOf(child), g.keyOf(parent)}
	if key.child == key.parent {
		return 1, nil
	}
	g.memoMu.Lock()
	sim, ok := g.edges[key]
	g.memoMu.Unlock()
	if ok {
		return sim, nil
	}
	a, err := t.body(child)
	if err != nil {
		return 0, err
	}
	b, err := t.body(parent)
	if err != nil {
		return 0, err
	}
	sim = factdb.Similarity(a, b)
	g.tm.edgeComputed.Inc()
	g.memoMu.Lock()
	g.edges[key] = sim
	g.memoMu.Unlock()
	return sim, nil
}

// rootMatch returns the best fact match of an item's body, memoised until
// the fact index grows.
func (t *tracer) rootMatch(i int32) (rootMatch, error) {
	g := t.g
	key := g.keyOf(i)
	n := g.facts.Len()
	g.memoMu.Lock()
	if n != g.factsLen {
		g.roots = make(map[bodyKey]rootMatch)
		g.factsLen = n
	}
	m, ok := g.roots[key]
	g.memoMu.Unlock()
	if ok {
		return m, nil
	}
	text, err := t.body(i)
	if err != nil {
		return rootMatch{}, err
	}
	if fm, ok := g.facts.BestMatch(text); ok {
		m = rootMatch{factID: fm.Fact.ID, sim: fm.Similarity, ok: true}
	}
	g.tm.rootComputed.Inc()
	g.memoMu.Lock()
	// A fact added while this match was being computed makes it stale
	// before it is stored; it still answers this call, as a BestMatch read
	// a moment earlier would have.
	if g.factsLen == n && g.facts.Len() == n {
		g.roots[key] = m
	}
	g.memoMu.Unlock()
	return m, nil
}

// TraceAll ranks every item, returning results keyed by item id. Items
// whose trace needs a body this node lacks are left out.
func (g *Graph) TraceAll() map[string]TraceResult {
	g.mu.RLock()
	ids := make([]string, len(g.nodes))
	for i := range g.nodes {
		ids[i] = g.nodes[i].id
	}
	g.mu.RUnlock()
	out := make(map[string]TraceResult, len(ids))
	for _, id := range ids {
		// Trace re-acquires the lock; the walk's memo is per call, what it
		// computes from bodies is kept by the graph.
		if res, err := g.Trace(id); err == nil {
			out[id] = res
		}
	}
	return out
}

// Stats summarizes the graph shape for the E3/E4 contrast.
type Stats struct {
	Items     int     `json:"items"`
	Edges     int     `json:"edges"`
	Roots     int     `json:"roots"`
	MaxDepth  int     `json:"maxDepth"`
	AvgDegree float64 `json:"avgDegree"`
}

// Stats computes graph shape statistics.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := Stats{Items: len(g.nodes)}
	// Parents precede children, so one forward pass knows every parent's
	// depth before it is needed.
	depth := make([]int, len(g.nodes))
	for i := range g.nodes {
		n := &g.nodes[i]
		s.Edges += len(n.parents)
		if len(n.parents) == 0 {
			s.Roots++
		}
		for _, p := range n.parents {
			if d := depth[p] + 1; d > depth[i] {
				depth[i] = d
			}
		}
		if depth[i] > s.MaxDepth {
			s.MaxDepth = depth[i]
		}
	}
	if s.Items > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Items)
	}
	return s
}
