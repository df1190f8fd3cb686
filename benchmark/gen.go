package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/blobstore"
	"repro/internal/corpus"
	"repro/internal/keys"
)

type opKind int

const (
	opPublish opKind = iota
	opRelay
	opVote
	opSearch
	opBlob
	opRank
	opIngest
)

var opNames = [...]string{"publish", "relay", "vote", "search", "blob_read", "rank", "ingest"}

func (k opKind) String() string { return opNames[k] }

// weight is one entry of a traffic mix.
type weight struct {
	kind opKind
	w    int
}

type mix []weight

func (m mix) total() int {
	t := 0
	for _, e := range m {
		t += e.w
	}
	return t
}

// deck returns one full cycle of the mix — each kind exactly as often as
// its weight — in an order shuffled by rng. Drawing whole decks keeps the
// share of each kind the same for every seed; only the order varies.
func (m mix) deck(rng *rand.Rand) []opKind {
	out := make([]opKind, 0, m.total())
	for _, e := range m {
		for i := 0; i < e.w; i++ {
			out = append(out, e.kind)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// article is one preloaded news item every read, vote and relay targets.
// Ops never target articles published during the run, so the op sequence
// depends on the seed alone and not on timing.
type article struct {
	id    string
	topic corpus.Topic
	text  string
	cid   string
}

// user is one signing account. The runner serialises sends per user: a
// sender's transactions must reach the mempool in nonce order.
type user struct {
	kp    *keys.KeyPair
	addr  string
	nonce uint64
	// acked counts 2xx-acked transactions, checked against the committed
	// nonce at the end of the drain.
	acked uint64
}

// inputs is everything generated from the seed before any process starts.
type inputs struct {
	seed     int64
	users    []*user
	articles []article
	bodies   int // distinct bodies: articles[:bodies] carry one each
	queries  []string
}

const (
	articleSentences = 8
	// articlesPerBody preloaded articles carry the same body, as reprints
	// of one wire story do. It keeps the blob store's file count, and with
	// it the share of set-up time that is file-system work, small.
	articlesPerBody = 10
	// numQueries is large enough that every seed's query set costs about
	// the same to answer.
	numQueries = 256
)

// articleText builds a multi-sentence body ending in a reference unique
// to the article, so no two bodies share a content id.
func articleText(gen *corpus.Generator, topic corpus.Topic, ref string) string {
	var b strings.Builder
	for i := 0; i < articleSentences; i++ {
		b.WriteString(gen.FactualOn(topic).Text)
		b.WriteString(". ")
	}
	b.WriteString("Filed as ")
	b.WriteString(ref)
	b.WriteByte('.')
	return b.String()
}

func pickTopic(rng *rand.Rand) corpus.Topic {
	return corpus.AllTopics[rng.Intn(len(corpus.AllTopics))]
}

func makeInputs(seed int64, users, articles int) (*inputs, error) {
	in := &inputs{seed: seed}
	for i := 0; i < users; i++ {
		kp := keys.FromSeed([]byte(fmt.Sprintf("bench-user-%d-%d", seed, i)))
		in.users = append(in.users, &user{kp: kp, addr: kp.Address().String()})
	}
	gen := corpus.NewGenerator(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	bodies := make([]article, (articles+articlesPerBody-1)/articlesPerBody)
	for j := range bodies {
		topic := pickTopic(rng)
		text := articleText(gen, topic, fmt.Sprintf("b%d-%05d", seed, j))
		cid, err := blobstore.ComputeCID([]byte(text), blobstore.DefaultChunkSize)
		if err != nil {
			return nil, err
		}
		bodies[j] = article{topic: topic, text: text, cid: string(cid)}
	}
	for i := 0; i < articles; i++ {
		a := bodies[i%len(bodies)]
		a.id = fmt.Sprintf("a%d-%06d", seed, i)
		in.articles = append(in.articles, a)
	}
	in.bodies = len(bodies)
	// Queries are words of the preloaded bodies, so every search hits.
	var vocab []string
	for _, b := range bodies {
		for _, w := range corpus.Tokenize(b.text) {
			if len(w) >= 4 && w[0] >= 'a' {
				vocab = append(vocab, w)
			}
		}
	}
	for i := 0; i < numQueries; i++ {
		in.queries = append(in.queries, vocab[rng.Intn(len(vocab))])
	}
	return in, nil
}

// op is one generated operation. Every field is fixed by the seed.
type op struct {
	kind   opKind
	dueOff time.Duration // open loop: offset from traffic start
	user   int           // signer (transactions)
	art    int           // target preloaded article
	vote   bool
	q      string // search query
	id     string // new item id (publish, relay)
	topic  corpus.Topic
	text   string // new body (publish, ingest)
	token  string // probes: unique searchable token
}

// opGen turns a seed into an endless op stream over a user subset. One
// generator feeds one open-loop schedule or one closed-loop client, so
// its stream does not depend on how fast the system answers.
type opGen struct {
	tag    string
	rng    *rand.Rand
	gen    *corpus.Generator
	m      mix
	in     *inputs
	users  []int // user indexes this stream signs with
	zipf   *rand.Zipf
	deck   []opKind
	n      int
	nvotes map[int]int
	// voteBase shifts the vote walk, so a second stream over the same
	// users (the in-process probes) repeats none of the first one's votes.
	voteBase int
}

func newOpGen(in *inputs, tag string, salt int64, m mix, users []int) *opGen {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + salt))
	return &opGen{
		tag: tag, rng: rng, gen: corpus.NewGenerator(in.seed*1_000_003 + salt),
		m: m, in: in, users: users,
		// A mild zipf over the preload: a few stories draw most reads.
		zipf:   rand.NewZipf(rng, 1.2, 1, uint64(len(in.articles)-1)),
		nvotes: make(map[int]int),
	}
}

func (g *opGen) next() op {
	if len(g.deck) == 0 {
		g.deck = g.m.deck(g.rng)
	}
	o := op{kind: g.deck[0]}
	g.deck = g.deck[1:]
	g.n++
	switch o.kind {
	case opPublish:
		o.user = g.users[g.rng.Intn(len(g.users))]
		o.id = fmt.Sprintf("%s%d-%06d", g.tag, g.in.seed, g.n)
		o.topic = pickTopic(g.rng)
		o.text = articleText(g.gen, o.topic, o.id)
	case opIngest:
		o.id = fmt.Sprintf("%s%d-%06d", g.tag, g.in.seed, g.n)
		o.topic = pickTopic(g.rng)
		o.text = articleText(g.gen, o.topic, o.id)
	case opRelay:
		o.user = g.users[g.rng.Intn(len(g.users))]
		o.id = fmt.Sprintf("%s%d-%06d", g.tag, g.in.seed, g.n)
		o.art = int(g.zipf.Uint64())
	case opVote:
		// One account may vote once per item: walk each user through the
		// preload from a user-specific offset so no vote repeats.
		o.user = g.users[g.rng.Intn(len(g.users))]
		o.art = (o.user*7919 + g.voteBase + g.nvotes[o.user]) % len(g.in.articles)
		g.nvotes[o.user]++
		o.vote = g.rng.Intn(2) == 0
	case opSearch:
		o.q = g.in.queries[g.rng.Intn(len(g.in.queries))]
	case opBlob, opRank:
		o.art = int(g.zipf.Uint64())
	}
	return o
}

// probe builds the k-th searchable probe: a publish (or ingest) whose
// body carries a token no other document has.
func (g *opGen) probe(kind opKind, k int) op {
	token := fmt.Sprintf("zq%dn%d", g.in.seed, k)
	o := op{kind: kind, token: token, topic: pickTopic(g.rng)}
	o.id = fmt.Sprintf("p%d-%06d", g.in.seed, k)
	o.user = g.users[g.rng.Intn(len(g.users))]
	o.text = articleText(g.gen, o.topic, o.id) + " Marker " + token + "."
	return o
}

// hashOps folds an op sequence into a hex digest (tests and the run log
// use it to show that a seed fixes the sequence).
func hashOps(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%d|%d|%d|%d|%t|%s|%s|%s|%s|%s\n",
			o.kind, o.dueOff, o.user, o.art, o.vote, o.q, o.id, o.topic, o.text, o.token)
	}
	return hex.EncodeToString(h.Sum(nil))
}
