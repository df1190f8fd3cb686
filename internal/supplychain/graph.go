package supplychain

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/contract"
	"repro/internal/factdb"
	"repro/internal/store"
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

// Source is what a Graph reads the committed items from. Items are
// write-once and a parent is committed before its children, so reading an
// ancestry one item at a time is consistent.
type Source interface {
	// Item returns one item: an unknown id is an error wrapping
	// ErrItemNotFound, any other error a failure to read.
	Item(id string) (Item, error)
	// ScanItems calls fn for every item in id order, stopping at the first
	// error fn returns.
	ScanItems(fn func(Item) error) error
	// Len counts the items.
	Len() int
}

// stateSource is the Source a node's graph reads: the news contract's
// items in the engine's committed state, one key per item.
type stateSource struct{ e *contract.Engine }

// StateSource reads the items the news contract stored in e's state.
func StateSource(e *contract.Engine) Source { return stateSource{e} }

// itemPrefix is where the news contract keeps its items in the state.
const itemPrefix = ContractName + "/item/"

func (s stateSource) Item(id string) (Item, error) {
	raw, err := s.e.Get(itemPrefix + id)
	if errors.Is(err, store.ErrNotFound) {
		return Item{}, fmt.Errorf("%w: %s", ErrItemNotFound, id)
	}
	if err != nil {
		return Item{}, err
	}
	return decodeItem(raw)
}

func (s stateSource) ScanItems(fn func(Item) error) error {
	return s.e.Scan(itemPrefix, func(_ string, raw []byte) error {
		it, err := decodeItem(raw)
		if err != nil {
			return err
		}
		return fn(it)
	})
}

// Len counts the items up to the first page that cannot be read.
func (s stateSource) Len() int {
	n := 0
	_ = s.e.Scan(itemPrefix, func(string, []byte) error { n++; return nil })
	return n
}

func decodeItem(raw []byte) (Item, error) {
	var it Item
	if err := json.Unmarshal(raw, &it); err != nil {
		return Item{}, fmt.Errorf("supplychain: decode item: %w", err)
	}
	return it, nil
}

// ItemMap is a Source held in memory, the items by id, for experiments
// and tests. As in the contract's state, a parent must be in it before a
// child of it is traced.
type ItemMap map[string]Item

// Item implements Source.
func (m ItemMap) Item(id string) (Item, error) {
	it, ok := m[id]
	if !ok {
		return Item{}, fmt.Errorf("%w: %s", ErrItemNotFound, id)
	}
	return it, nil
}

// ScanItems implements Source.
func (m ItemMap) ScanItems(fn func(Item) error) error {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := fn(m[id]); err != nil {
			return err
		}
	}
	return nil
}

// Len implements Source.
func (m ItemMap) Len() int { return len(m) }

// Graph is the news supply-chain DAG, read from a Source: a node's graph
// is a view over contract state and keeps no item of its own. Trace reads
// the ancestry it walks one item at a time and the bodies it needs through
// Resolve. What it derives from bodies — edge similarities and fact
// matches — is memoised per body, not per item, so every item that shares
// a CID shares its similarities and a story's text is read once however
// many times it was relayed.
type Graph struct {
	// Resolve reads an off-chain body by content id. Set it before the
	// first Trace of an item that has a CID; without it such a trace
	// answers ErrBodyUnavailable.
	Resolve func(cid string) (string, error)

	src   Source
	facts FactChecker

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

// bodyKey names one article body: an off-chain body by its CID, an inline
// body by the id of the one item that carries it.
type bodyKey struct{ cid, item string }

func keyOf(it *Item) bodyKey {
	if it.CID != "" {
		return bodyKey{cid: it.CID}
	}
	return bodyKey{item: it.ID}
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

// NewGraph creates a graph over the items of src and the given factual
// database view.
func NewGraph(src Source, facts FactChecker) *Graph {
	return &Graph{
		src:   src,
		facts: facts,
		edges: make(map[edgeKey]float64),
		roots: make(map[bodyKey]rootMatch),
	}
}

// Len returns the number of items: the source's count, on a node a scan
// that reads every item.
func (g *Graph) Len() int { return g.src.Len() }

// traceState is one item's best-known trace during the memoized walk.
type traceState struct {
	rooted    bool
	score     float64
	depth     int
	next      string // next hop toward the root ("" at the root)
	rootFact  string
	rootMatch float64
}

// tracer is the state of one Trace call: the items read, the per-item memo
// of the DAG walk, and every body read so far, so that a call reads none
// twice.
type tracer struct {
	g      *Graph
	items  map[string]*Item
	memo   map[string]traceState
	bodies map[string]string // by CID
}

// Trace ranks one item by walking its ancestry to the factual database.
// Similarities come from the graph's memo where an earlier call left them
// and from the bodies otherwise: the first trace through an ancestor reads
// its body once, later ones read nothing. If a body is needed and this
// node does not hold it the error wraps ErrBodyUnavailable.
func (g *Graph) Trace(id string) (TraceResult, error) {
	t := tracer{g: g, items: make(map[string]*Item), memo: make(map[string]traceState)}
	st, err := t.trace(id)
	if err != nil {
		if errors.Is(err, ErrBodyUnavailable) {
			g.tm.bodyUnavailable.Inc()
		}
		return TraceResult{}, err
	}

	res := TraceResult{ItemID: id, Rooted: st.rooted, Score: st.score, Depth: st.depth, Path: []string{id}}
	for cur := st.next; cur != ""; cur = t.memo[cur].next {
		res.Path = append(res.Path, cur)
	}
	if !st.rooted {
		return res, nil
	}
	res.RootFactID = st.rootFact
	// Originator: walk the path from the root outward and report the
	// creator of the first substantially-modifying item. A root that itself
	// imperfectly matches the factual database was modified by its own
	// creator.
	if st.rootMatch < ModificationThreshold {
		root := t.items[res.Path[len(res.Path)-1]]
		res.Originator, res.OriginatorItem = root.Creator, root.ID
		return res, nil
	}
	for i := len(res.Path) - 2; i >= 0; i-- {
		child := t.items[res.Path[i]]
		// Every edge of the path was computed by the walk above, so this
		// cannot miss a body.
		if sim, _ := t.edgeSim(child, t.items[res.Path[i+1]]); sim < ModificationThreshold {
			res.Originator, res.OriginatorItem = child.Creator, child.ID
			break
		}
	}
	return res, nil
}

// item reads an item once per Trace call.
func (t *tracer) item(id string) (*Item, error) {
	if it, ok := t.items[id]; ok {
		return it, nil
	}
	it, err := t.g.src.Item(id)
	if err != nil {
		return nil, err
	}
	t.items[id] = &it
	return &it, nil
}

// trace computes the best traceState for an item, memoized over the DAG
// (the contract admits only committed parents, so the recursion ends).
func (t *tracer) trace(id string) (traceState, error) {
	if st, ok := t.memo[id]; ok {
		return st, nil
	}
	it, err := t.item(id)
	if err != nil {
		return traceState{}, err
	}
	var best traceState

	// The item itself may match the factual database (it IS a fact or a
	// near-verbatim copy of one).
	m, err := t.rootMatch(it)
	if err != nil {
		return traceState{}, err
	}
	if m.ok && m.sim >= MinRootMatch && (m.sim >= ModificationThreshold || len(it.Parents) == 0) {
		best = traceState{rooted: true, score: m.sim, rootFact: m.factID, rootMatch: m.sim}
	}

	// Or a parent path may score higher: score = hopSim * parentScore.
	// Parents are visited in id order for deterministic tie-breaking.
	parents := it.Parents
	if len(parents) > 1 {
		parents = append([]string(nil), parents...)
		sort.Strings(parents)
	}
	for _, p := range parents {
		ps, err := t.trace(p)
		if err != nil {
			return traceState{}, err
		}
		if !ps.rooted {
			continue
		}
		sim, err := t.edgeSim(it, t.items[p])
		if err != nil {
			return traceState{}, err
		}
		score := sim * ps.score
		// A parent path wins ties against the direct factual match so the
		// result carries the full declared provenance (a verbatim relay of
		// a fact scores 1.0 either way, but the path matters for
		// propagation analysis).
		directTie := best.next == "" && score >= best.score
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
	t.memo[id] = best
	return best, nil
}

// body returns an item's text: its own for an inline item, read through
// Resolve (once per Trace call) for an off-chain one.
func (t *tracer) body(it *Item) (string, error) {
	if it.CID == "" {
		return it.Text, nil
	}
	if text, ok := t.bodies[it.CID]; ok {
		return text, nil
	}
	if t.g.Resolve == nil {
		return "", fmt.Errorf("%w: item %s body %s: no resolver", ErrBodyUnavailable, it.ID, it.CID)
	}
	text, err := t.g.Resolve(it.CID)
	if err != nil {
		return "", fmt.Errorf("%w: item %s: %v", ErrBodyUnavailable, it.ID, err)
	}
	if t.bodies == nil {
		t.bodies = make(map[string]string)
	}
	t.bodies[it.CID] = text
	return text, nil
}

// edgeSim returns the text similarity of a child and one of its parents.
// A verbatim relay — both name the same CID — is 1.0 by definition and
// needs no body.
func (t *tracer) edgeSim(child, parent *Item) (float64, error) {
	g := t.g
	key := edgeKey{keyOf(child), keyOf(parent)}
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
func (t *tracer) rootMatch(it *Item) (rootMatch, error) {
	g := t.g
	key := keyOf(it)
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
	text, err := t.body(it)
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

// traceEach traces every item the scan yields that fn wants (nil: all) and
// hands fn the result. An item whose trace needs a body this node lacks is
// left out; any other error ends the scan.
func (g *Graph) traceEach(want func(*Item) bool, fn func(*Item, TraceResult)) error {
	return g.src.ScanItems(func(it Item) error {
		if want != nil && !want(&it) {
			return nil
		}
		res, err := g.Trace(it.ID)
		if errors.Is(err, ErrBodyUnavailable) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(&it, res)
		return nil
	})
}

// TraceAll ranks every item — one scan of the source, a trace per item —
// returning results keyed by item id. Items whose trace needs a body this
// node lacks are left out.
func (g *Graph) TraceAll() (map[string]TraceResult, error) {
	out := make(map[string]TraceResult)
	err := g.traceEach(nil, func(it *Item, res TraceResult) { out[it.ID] = res })
	return out, err
}

// Stats summarizes the graph shape for the E3/E4 contrast.
type Stats struct {
	Items     int     `json:"items"`
	Edges     int     `json:"edges"`
	Roots     int     `json:"roots"`
	MaxDepth  int     `json:"maxDepth"`
	AvgDegree float64 `json:"avgDegree"`
}

// Stats computes graph shape statistics from one scan of the source,
// holding every item's parents until it returns.
func (g *Graph) Stats() (Stats, error) {
	var s Stats
	parents := make(map[string][]string)
	if err := g.src.ScanItems(func(it Item) error {
		s.Items++
		s.Edges += len(it.Parents)
		if len(it.Parents) == 0 {
			s.Roots++
		}
		parents[it.ID] = it.Parents
		return nil
	}); err != nil {
		return Stats{}, err
	}
	depth := make(map[string]int, len(parents))
	var depthOf func(id string) int
	depthOf = func(id string) int {
		if d, ok := depth[id]; ok {
			return d
		}
		d := 0
		for _, p := range parents[id] {
			d = max(d, depthOf(p)+1)
		}
		depth[id] = d
		return d
	}
	for id := range parents {
		s.MaxDepth = max(s.MaxDepth, depthOf(id))
	}
	if s.Items > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Items)
	}
	return s, nil
}
