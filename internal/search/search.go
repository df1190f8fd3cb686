// Package search provides the platform's full-text article index. The
// paper's platform lets readers look up news and its trust evidence;
// with article bodies moved off-chain (see internal/blobstore) the chain
// itself is no longer scannable for text, so this index — fed from the
// commit bus like every other derived view — is what makes committed
// articles findable again.
//
// The index is built for the "continuous firehose of news" the paper
// assumes (§VI): it must absorb a sustained stream of newly committed
// articles while serving reader queries, at corpus sizes a single
// mutex-guarded map cannot hold. Two structural decisions follow:
//
//   - Immutable read snapshots. The index publishes its sealed segments
//     through an atomic pointer; queries only ever load that pointer, so
//     a query never takes a lock and never contends with the indexer.
//     The one writer (the commit-bus indexer) batches new postings in a
//     memtable and seals it into a fresh immutable segment on Refresh —
//     the near-real-time search design, in miniature. A sealed segment
//     keeps each term's postings packed in one exact-size string of
//     uvarint (doc delta, term frequency) pairs, two or three bytes a
//     posting.
//   - Size-tiered compaction. Sealing once per committed block would
//     accumulate tiny segments forever, and blocks come every few
//     milliseconds under load. Segments stay in document order, and the
//     newest is merged into the one before it while that one is less than
//     twice its size. So a merge is a concatenation, the index holds
//     O(log N) segments, and a posting is rewritten O(log N) times over
//     the life of the index.
//
// Ranking is BM25 (k1/b defaults from the literature). The index is
// deterministic: scores depend only on the indexed corpus (never on
// segment layout), and ties break by document id, so
// replicas that consumed the same commits answer queries identically.
//
// The checkpoint blob (snapshot.go) is the packed lists themselves: the
// doc table, the terms in order, and each term's list merged across
// segments, so it too is the same on every replica. Restore validates every
// byte before it installs anything: a blob it did not write, hostile or
// from an older build, is an error wrapping ErrBadSnapshot, never a panic
// or an allocation out of proportion to the blob.
package search

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
)

// BM25 parameters (standard Robertson/Sparck-Jones defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// defaultFlushDocs seals the memtable once it holds this many
// documents even without an explicit Refresh, bounding memtable size
// between commits.
const defaultFlushDocs = 512

// tierRatio is the compaction policy: the newest segment is merged into
// the one before it while that one holds at most tierRatio times its
// documents, so adjacent segments differ in size by more than tierRatio.
const tierRatio = 2

// Ranker names a scoring function. BM25 is the only one: per-term IDF
// with term-frequency saturation and document-length normalisation.
type Ranker string

// RankBM25 names the index's scoring function.
const RankBM25 Ranker = "bm25"

// Result is one ranked query hit.
type Result struct {
	ID    string  `json:"id"`
	Topic string  `json:"topic"`
	Score float64 `json:"score"`
}

// Page is one pagination window of a ranked result list.
type Page struct {
	// Total is the number of matching documents before pagination.
	Total int `json:"total"`
	// Offset echoes the requested window start.
	Offset int `json:"offset"`
	// Results is the window itself.
	Results []Result `json:"results"`
}

// docInfo is the per-document bookkeeping the ranker needs. Documents
// are immutable once committed, so entries are write-once.
type docInfo struct {
	ID     string
	Topic  string
	Length int32 // token count, for length normalisation
}

// posting is one (document, term-frequency) pair. Documents are
// referenced by their dense internal index into the doc table. The
// memtable holds postings as such; a sealed segment and the snapshot pack
// them (see packed).
type posting struct {
	Doc int32
	TF  int32
}

// segment is an immutable sealed batch of postings. Once published it is
// never mutated — only replaced wholesale by compaction — so readers need
// no synchronisation beyond loading the segment list. The published
// segments cover ascending, disjoint document ranges in order.
type segment struct {
	postings map[string]packed
	docs     int // documents sealed into this segment
}

// packed is one term's posting list in a sealed segment, in ascending
// document order: a uvarint count, then a uvarint (doc delta, tf) pair per
// posting, the first delta taken from document 0. A string is immutable
// and exactly as long as its content, so a list costs its bytes and a
// 16-byte header.
type packed string

// pack encodes a posting list in ascending document order.
func pack(ps []posting) packed {
	size := uvarintLen(uint64(len(ps)))
	prev := int32(0)
	for _, p := range ps {
		size += uvarintLen(uint64(p.Doc-prev)) + uvarintLen(uint64(p.TF))
		prev = p.Doc
	}
	var b strings.Builder
	b.Grow(size)
	var tmp [binary.MaxVarintLen64]byte
	b.Write(binary.AppendUvarint(tmp[:0], uint64(len(ps))))
	prev = 0
	for _, p := range ps {
		b.Write(binary.AppendUvarint(tmp[:0], uint64(p.Doc-prev)))
		b.Write(binary.AppendUvarint(tmp[:0], uint64(p.TF)))
		prev = p.Doc
	}
	return packed(b.String())
}

// count returns the number of postings in the list.
func (l packed) count() int {
	n, _ := uvarintAt(string(l), 0)
	return int(n)
}

// each calls fn for every posting in document order until fn returns
// false.
func (l packed) each(fn func(doc, tf int32) bool) {
	s := string(l)
	_, i := uvarintAt(s, 0)
	doc := int32(0)
	for i < len(s) {
		var d, tf uint64
		d, i = uvarintNext(s, i)
		tf, i = uvarintNext(s, i)
		doc += int32(d)
		if !fn(doc, int32(tf)) {
			return
		}
	}
}

// concat appends list b, whose documents all follow a's, to list a. Only
// the count and b's first delta are re-encoded; the rest is copied.
func concat(a, b packed) packed {
	var last int32
	a.each(func(doc, _ int32) bool { last = doc; return true })
	ca, ia := uvarintAt(string(a), 0)
	cb, ib := uvarintAt(string(b), 0)
	first, jb := uvarintAt(string(b), ib)
	delta := uint64(int32(first) - last)
	var b2 strings.Builder
	b2.Grow(uvarintLen(ca+cb) + len(a) - ia + uvarintLen(delta) + len(b) - jb)
	var tmp [binary.MaxVarintLen64]byte
	b2.Write(binary.AppendUvarint(tmp[:0], ca+cb))
	b2.WriteString(string(a[ia:]))
	b2.Write(binary.AppendUvarint(tmp[:0], delta))
	b2.WriteString(string(b[jb:]))
	return packed(b2.String())
}

// uvarintAt decodes the uvarint at s[i:], returning it and the index
// after it. Lists are built by pack or checked by restore, so they are well
// formed.
func uvarintAt(s string, i int) (uint64, int) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		c := s[i]
		i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, i
		}
	}
}

// uvarintNext is uvarintAt with the one-byte case, nearly every delta and
// frequency, decoded in line.
func uvarintNext(s string, i int) (uint64, int) {
	if c := s[i]; c < 0x80 {
		return uint64(c), i + 1
	}
	return uvarintAt(s, i)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// docsView is the immutable published doc table: a prefix of the
// grow-only info slice plus the corpus statistics the rankers need.
type docsView struct {
	infos    []docInfo // length fixed at publish; entries are write-once
	totalLen int64
}

// Index is an inverted index with immutable read snapshots and BM25
// ranking.
type Index struct {
	// wmu serializes writers (Add, Refresh, restore). Queries never take
	// it: they read the atomic views only.
	wmu sync.Mutex
	// byID maps document id to dense internal index (writer-side dedup).
	byID map[string]int32
	// terms holds the one copy of each term that posting maps use as key.
	terms map[string]string
	// infos is the grow-only doc table; docs.Load() exposes a sealed
	// prefix to readers.
	infos    []docInfo
	totalLen int64
	docs     atomic.Pointer[docsView]
	// mem is the memtable new postings land in; memDocs counts the
	// documents added since the last Refresh.
	mem     map[string][]posting
	memDocs int
	// segments is the published list of sealed segments queries read.
	segments atomic.Pointer[[]*segment]

	flushDocs int
}

// New creates an empty index.
func New() *Index {
	x := &Index{
		byID:      make(map[string]int32),
		terms:     make(map[string]string),
		mem:       make(map[string][]posting),
		flushDocs: defaultFlushDocs,
	}
	x.docs.Store(&docsView{})
	x.segments.Store(new([]*segment))
	return x
}

// Add indexes one document. Re-adding an id is a no-op (documents are
// immutable once committed). The document becomes visible to queries at
// the next Refresh (or automatically once enough documents accumulate).
func (x *Index) Add(id, topic, text string) {
	if id == "" {
		return
	}
	x.wmu.Lock()
	defer x.wmu.Unlock()
	if _, dup := x.byID[id]; dup {
		return
	}
	toks := corpus.Tokenize(text)
	idx := int32(len(x.infos))
	x.byID[id] = idx
	x.infos = append(x.infos, docInfo{ID: id, Topic: topic, Length: int32(len(toks))})
	x.totalLen += int64(len(toks))
	x.memDocs++

	tf := make(map[string]int32, len(toks))
	for _, tok := range toks {
		tf[tok]++
	}
	for tok, n := range tf {
		// tok is a substring of the lowered body, and a map assignment
		// replaces a string key even when an equal one is present: used as
		// a posting key it would keep the whole body alive.
		term, ok := x.terms[tok]
		if !ok {
			term = strings.Clone(tok)
			x.terms[term] = term
		}
		x.mem[term] = append(x.mem[term], posting{Doc: idx, TF: n})
	}
	if x.memDocs >= x.flushDocs {
		x.refreshLocked()
	}
}

// Refresh seals the memtable into an immutable segment and publishes
// new read views. The commit-bus indexer calls it after each
// applied batch, so queries see committed articles with at most one
// batch of lag.
func (x *Index) Refresh() {
	x.wmu.Lock()
	defer x.wmu.Unlock()
	x.refreshLocked()
}

func (x *Index) refreshLocked() {
	if x.memDocs == 0 {
		return
	}
	// Publish the doc table first: postings must never reference a
	// document a concurrent query cannot resolve.
	x.docs.Store(&docsView{infos: x.infos[:len(x.infos):len(x.infos)], totalLen: x.totalLen})
	seg := &segment{postings: make(map[string]packed, len(x.mem)), docs: x.memDocs}
	x.memDocs = 0
	if len(x.mem) == 0 {
		return // documents without a token
	}
	for term, ps := range x.mem {
		seg.postings[term] = pack(ps)
	}
	clear(x.mem)
	// Size-tiered compaction: merge the newest segment into the one before
	// it while that one is not more than tierRatio times larger.
	old := *x.segments.Load()
	segs := append(make([]*segment, 0, len(old)+1), old...)
	segs = append(segs, seg)
	for n := len(segs); n >= 2 && segs[n-2].docs <= tierRatio*segs[n-1].docs; n-- {
		segs[n-2] = merge(segs[n-2], segs[n-1])
		segs = segs[:n-1]
	}
	x.segments.Store(&segs)
}

// merge concatenates two adjacent segments, a before b. A term found in
// only one of them keeps its list as it is: lists are immutable.
func merge(a, b *segment) *segment {
	m := &segment{postings: make(map[string]packed, len(a.postings)+len(b.postings)), docs: a.docs + b.docs}
	for term, l := range a.postings {
		m.postings[term] = l
	}
	for term, l := range b.postings {
		if prev, ok := m.postings[term]; ok {
			l = concat(prev, l)
		}
		m.postings[term] = l
	}
	return m
}

// Docs returns the number of indexed documents visible to queries.
func (x *Index) Docs() int { return len(x.docs.Load().infos) }

// Query returns the top-k documents for the query string under BM25.
// k <= 0 means no limit. The call is lock-free: it reads only the
// published immutable views, so it never contends with the indexer.
func (x *Index) Query(q string, k int) []Result {
	page := x.QueryPage(q, 0, k)
	return page.Results
}

// QueryPage runs a BM25-ranked query and returns one pagination window.
// limit <= 0 means "to the end"; offset past the result set yields an
// empty window with the true Total.
func (x *Index) QueryPage(q string, offset, limit int) Page {
	docs := x.docs.Load()
	n := len(docs.infos)
	if offset < 0 {
		offset = 0
	}
	if n == 0 {
		return Page{Offset: offset, Results: []Result{}}
	}
	avgdl := float64(docs.totalLen) / float64(n)
	if avgdl <= 0 {
		avgdl = 1
	}

	sc := scratchPool.Get().(*queryScratch)
	defer sc.release()
	sc.grow(n)
	segs := *x.segments.Load()
	for _, tok := range corpus.Tokenize(q) {
		// df first: IDF needs the document frequency across segments.
		df := 0
		for _, seg := range segs {
			if l, ok := seg.postings[tok]; ok {
				df += l.count()
			}
		}
		if df == 0 {
			continue
		}
		idf := math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
		for _, seg := range segs {
			l, ok := seg.postings[tok]
			if !ok {
				continue
			}
			// The list is decoded in line: a callback per posting was most of
			// a query's time.
			s := string(l)
			_, i := uvarintAt(s, 0)
			doc := int32(0)
			for i < len(s) {
				var d, f uint64
				d, i = uvarintNext(s, i)
				f, i = uvarintNext(s, i)
				doc += int32(d)
				if int(doc) >= n {
					// Sealed after the doc view we loaded, like every later
					// posting: stop rather than read an unpublished entry.
					break
				}
				dl := float64(docs.infos[doc].Length)
				tf := float64(f)
				denom := tf + bm25K1*(1-bm25B+bm25B*dl/avgdl)
				sc.add(doc, idf*tf*(bm25K1+1)/denom)
			}
		}
	}

	// Rank the hits as doc indexes, only as far as the window reaches, and
	// build Results for the window alone.
	hits, scores := sc.hits, sc.scores
	top := 0
	if limit > 0 {
		top = offset + limit
	}
	rankTop(hits, top, func(a, b int32) int {
		if scores[a] != scores[b] {
			if scores[a] > scores[b] {
				return -1
			}
			return 1
		}
		return strings.Compare(docs.infos[a].ID, docs.infos[b].ID)
	})
	total := len(hits)
	if offset >= total {
		return Page{Total: total, Offset: offset, Results: []Result{}}
	}
	hits = hits[offset:]
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	out := make([]Result, len(hits))
	for i, idx := range hits {
		info := docs.infos[idx]
		out[i] = Result{ID: info.ID, Topic: info.Topic, Score: scores[idx]}
	}
	return Page{Total: total, Offset: offset, Results: out}
}

// rankTop reorders hits so that its first k entries are the k that rank
// first under cmp, in rank order; the rest follow in no particular order.
// k <= 0 or k >= len(hits) ranks everything. A reader asks for a page of
// ten out of the thousands a query matches, and cmp is a strict total
// order, so selecting before sorting returns what sorting everything did.
func rankTop(hits []int32, k int, cmp func(a, b int32) int) {
	if k <= 0 || k >= len(hits) {
		slices.SortFunc(hits, cmp)
		return
	}
	// h holds the k best seen so far as a heap with the worst at the root.
	h := hits[:k]
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if c+1 < k && cmp(h[c+1], h[c]) > 0 {
				c++
			}
			if cmp(h[c], h[i]) <= 0 {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	for i := k; i < len(hits); i++ {
		if cmp(hits[i], h[0]) < 0 {
			h[0], hits[i] = hits[i], h[0]
			down(0)
		}
	}
	slices.SortFunc(h, cmp)
}

// queryScratch is the working set of one query, reused across queries: a
// score accumulator as wide as the doc table and the docs it touched. A
// query matches a large share of the corpus, so a map and a Result per
// match built and dropped on every call were most of what the node
// allocated under read load (and so most of what its collector ran for).
type queryScratch struct {
	scores []float64
	seen   []bool
	hits   []int32 // docs with an entry in scores, in first-touch order
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// grow makes room for n docs; entries are zero between queries.
func (s *queryScratch) grow(n int) {
	if len(s.scores) < n {
		s.scores = make([]float64, n+n/4)
		s.seen = make([]bool, len(s.scores))
	}
}

func (s *queryScratch) add(doc int32, v float64) {
	if !s.seen[doc] {
		s.seen[doc] = true
		s.hits = append(s.hits, doc)
	}
	s.scores[doc] += v
}

// release zeroes what the query touched and returns the scratch.
func (s *queryScratch) release() {
	for _, d := range s.hits {
		s.scores[d] = 0
		s.seen[d] = false
	}
	s.hits = s.hits[:0]
	scratchPool.Put(s)
}
