// Package loadgen is an open-loop load generator for the trust-news
// platform: it synthesizes a realistic traffic mix — article publishes,
// verbatim relays, ranking votes, keyword searches, and blob reads,
// with zipf-distributed user activity and article popularity — and
// offers it to a node's HTTP API at a constant arrival rate.
//
// Open-loop matters: a closed-loop client (fixed worker pool, next
// request after the previous response) slows down exactly when the
// server does, hiding the overload it is supposed to measure. Here
// arrivals fire on the configured schedule regardless of how many
// requests are still in flight; when the in-flight cap is reached the
// arrival is counted as client-dropped rather than deferred, so the
// measured shed rate and tail latency reflect the offered load, not a
// coordinated-omission artifact.
//
// A 429 from the node is recorded as "shed", never as a failure: that
// is the admission-control subsystem doing its job. Failures are
// transport errors and unexpected statuses only.
package loadgen

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/supplychain"
)

// Op names used in the mix and the per-op summary.
const (
	OpPublish  = "publish"
	OpRelay    = "relay"
	OpVote     = "vote"
	OpSearch   = "search"
	OpBlobRead = "blob_read"
	OpIngest   = "ingest"
)

// Mix is the relative weight of each operation in the synthesized
// traffic. Weights need not sum to anything particular.
type Mix struct {
	Publish  float64 `json:"publish"`
	Relay    float64 `json:"relay"`
	Vote     float64 `json:"vote"`
	Search   float64 `json:"search"`
	BlobRead float64 `json:"blob_read"`
	// Ingest posts raw articles to the async ingestion queue. Zero in
	// the default mix: it only makes sense against a node with an
	// attached pipeline (experiments opt in explicitly).
	Ingest float64 `json:"ingest"`
}

// DefaultMix skews toward reads the way a news feed does: most traffic
// consumes (search + blob reads), a smaller share produces.
func DefaultMix() Mix {
	return Mix{Publish: 25, Relay: 10, Vote: 15, Search: 30, BlobRead: 20}
}

func (m Mix) total() float64 {
	return m.Publish + m.Relay + m.Vote + m.Search + m.BlobRead + m.Ingest
}

// Config parameterizes one run.
type Config struct {
	// BaseURL is the node's API root, e.g. "http://127.0.0.1:8420".
	BaseURL string `json:"base_url"`
	// Rate is the offered arrival rate in requests/second.
	Rate float64 `json:"rate"`
	// Duration is the measured span; arrivals stop when it elapses.
	Duration time.Duration `json:"-"`
	// Users is the size of the synthetic user population. User activity
	// is zipf-distributed: a few accounts produce most traffic.
	Users int `json:"users"`
	// SeedArticles are published (and committed) before measurement so
	// votes, relays, searches and blob reads have targets from the
	// first arrival.
	SeedArticles int `json:"seed_articles"`
	// MaxInFlight caps concurrent requests; arrivals past the cap are
	// client-dropped to preserve the open-loop schedule.
	MaxInFlight int `json:"max_in_flight"`
	// Mix is the operation mix (DefaultMix when zero).
	Mix Mix `json:"mix"`
	// Seed makes user choice, article choice, and synthesized text
	// deterministic.
	Seed int64 `json:"seed"`
	// AuthoritySeed derives the platform authority key used by the
	// setup phase to mint vote budgets (must match the node's).
	AuthoritySeed string `json:"-"`
	// MintBudget is the token balance minted to each user for staking
	// votes.
	MintBudget uint64 `json:"mint_budget"`
	// RequestTimeout bounds every request (default 10s).
	RequestTimeout time.Duration `json:"-"`
	// SetupTimeout bounds the whole setup phase (default 60s).
	SetupTimeout time.Duration `json:"-"`
}

// DefaultConfig returns a small, laptop-friendly run shape; Rate,
// Duration, and BaseURL still need to be set.
func DefaultConfig() Config {
	return Config{
		Users:          64,
		SeedArticles:   24,
		MaxInFlight:    256,
		Mix:            DefaultMix(),
		Seed:           1,
		AuthoritySeed:  "platform-authority",
		MintBudget:     10_000,
		RequestTimeout: 10 * time.Second,
		SetupTimeout:   60 * time.Second,
	}
}

// user is one synthetic account. The mutex serializes its nonce: a
// sender's transactions must reach the mempool in nonce order, and a
// gap stalls every later transaction of that sender, so the scheduler
// TryLocks a user and probes onward rather than queueing behind one.
type user struct {
	kp    *keys.KeyPair
	addr  string
	mu    sync.Mutex
	nonce uint64
}

// article is one published item the generator can target again.
type article struct {
	id    string
	cid   string
	size  int
	topic corpus.Topic
}

// Engine drives one run against one node.
type Engine struct {
	cfg    Config
	client *Client
	gen    *corpus.Generator
	rng    *rand.Rand
	users  []*user
	uzipf  *rand.Zipf
	azipf  *rand.Zipf

	artMu    sync.RWMutex
	articles []article
	artSeq   int

	queries []string
}

// New builds an engine; Run executes it.
func New(cfg Config) (*Engine, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: Rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Duration must be positive, got %s", cfg.Duration)
	}
	if cfg.Users <= 0 || cfg.SeedArticles <= 0 || cfg.MaxInFlight <= 0 {
		return nil, fmt.Errorf("loadgen: Users, SeedArticles, MaxInFlight must be positive")
	}
	if cfg.Mix.total() <= 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.AuthoritySeed == "" {
		cfg.AuthoritySeed = "platform-authority"
	}
	if cfg.MintBudget == 0 {
		cfg.MintBudget = 10_000
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.SetupTimeout <= 0 {
		cfg.SetupTimeout = 60 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := &Engine{
		cfg:    cfg,
		client: NewClient(cfg.BaseURL, cfg.RequestTimeout),
		gen:    corpus.NewGenerator(cfg.Seed),
		rng:    rng,
		// s=1.2, v=1: a mild zipf — the head dominates without a
		// single user monopolizing the nonce locks.
		uzipf: rand.NewZipf(rng, 1.2, 1, uint64(cfg.Users-1)),
		azipf: rand.NewZipf(rng, 1.2, 1, 1<<20),
	}
	for i := 0; i < cfg.Users; i++ {
		kp := keys.FromSeed([]byte(fmt.Sprintf("loadgen-user-%d-%d", cfg.Seed, i)))
		e.users = append(e.users, &user{kp: kp, addr: kp.Address().String()})
	}
	// Pre-build keyword queries from the same lexicon the articles use
	// so searches hit the index rather than always missing.
	for i := 0; i < 32; i++ {
		st := e.gen.Factual()
		words := corpus.Tokenize(st.Text)
		e.queries = append(e.queries, words[e.rng.Intn(len(words))])
	}
	return e, nil
}

// Run executes setup then the measured open-loop phase and returns the
// summary. Setup errors abort the run; measurement-phase errors are
// recorded, never fatal.
func (e *Engine) Run() (Summary, error) {
	if err := e.setup(); err != nil {
		return Summary{}, err
	}
	return e.drive(), nil
}

// setup waits for the node, mints vote budgets, publishes the seed
// articles, and waits for everything to commit.
func (e *Engine) setup() error {
	if err := e.client.WaitReady(e.cfg.SetupTimeout); err != nil {
		return err
	}
	// Mint each user's vote budget. The authority key is shared with
	// the node; its nonce may have advanced (creator rewards, earlier
	// runs), so start from the chain's view.
	authority := keys.FromSeed([]byte(e.cfg.AuthoritySeed))
	authNonce, err := e.client.NextNonce(authority.Address().String())
	if err != nil {
		return fmt.Errorf("loadgen: authority nonce: %w", err)
	}
	for _, u := range e.users {
		payload, err := ranking.MintPayload(u.kp.Address(), e.cfg.MintBudget)
		if err != nil {
			return err
		}
		if err := e.submitRetry(authority, &authNonce, "rank.mint", payload); err != nil {
			return fmt.Errorf("loadgen: mint for %s: %w", u.addr[:8], err)
		}
	}
	// Each user's nonce may also have advanced if the node outlived a
	// previous run.
	for _, u := range e.users {
		n, err := e.client.NextNonce(u.addr)
		if err != nil {
			return fmt.Errorf("loadgen: nonce of %s: %w", u.addr[:8], err)
		}
		u.nonce = n
	}
	// Seed the article pool round-robin across users.
	for i := 0; i < e.cfg.SeedArticles; i++ {
		u := e.users[i%len(e.users)]
		st := e.gen.Factual()
		id := e.nextArticleID()
		cid, out, err := e.client.UploadBlob(st.Text)
		if out != OutcomeOK {
			return fmt.Errorf("loadgen: seed blob %d: %v", i, err)
		}
		payload, err := supplychain.PublishRefPayload(id, st.Topic, cid, len(st.Text), nil, "")
		if err != nil {
			return err
		}
		if err := e.submitRetry(u.kp, &u.nonce, "news.publish", payload); err != nil {
			return fmt.Errorf("loadgen: seed article %d: %w", i, err)
		}
		e.addArticle(article{id: id, cid: cid, size: len(st.Text), topic: st.Topic})
	}
	// Votes and searches need the seeds committed, not just pending.
	return e.client.WaitDrained(1, e.cfg.SetupTimeout)
}

// submitRetry submits one setup-phase transaction, retrying sheds with
// backoff (setup must land everything; only real failures abort).
func (e *Engine) submitRetry(kp *keys.KeyPair, nonce *uint64, kind string, payload []byte) error {
	deadline := time.Now().Add(e.cfg.SetupTimeout)
	for {
		tx, err := ledger.NewTx(kp, *nonce, kind, payload)
		if err != nil {
			return err
		}
		out, err := e.client.SubmitTx(tx)
		switch out {
		case OutcomeOK:
			*nonce++
			return nil
		case OutcomeShed:
			if time.Now().After(deadline) {
				return fmt.Errorf("loadgen: %s still shed at setup deadline", kind)
			}
			time.Sleep(50 * time.Millisecond)
		default:
			return err
		}
	}
}

func (e *Engine) nextArticleID() string {
	e.artMu.Lock()
	e.artSeq++
	id := fmt.Sprintf("lg-%d-%06d", e.cfg.Seed, e.artSeq)
	e.artMu.Unlock()
	return id
}

func (e *Engine) addArticle(a article) {
	e.artMu.Lock()
	e.articles = append(e.articles, a)
	e.artMu.Unlock()
}

// pickArticle draws a zipf-popular article: low draws map to the oldest
// (most established) items, mirroring how real feeds concentrate reads
// on a small set of viral stories.
func (e *Engine) pickArticle(z uint64) article {
	e.artMu.RLock()
	defer e.artMu.RUnlock()
	return e.articles[z%uint64(len(e.articles))]
}

// arrival is everything the scheduler decides for one request; workers
// only execute it.
type arrival struct {
	op   string
	u    *user // locked by the scheduler; worker must unlock (nil for reads)
	st   corpus.Statement
	art  article
	q    string
	vote bool
}

// drive runs the measured open-loop phase.
func (e *Engine) drive() Summary {
	rec := newRecorder()
	sem := make(chan struct{}, e.cfg.MaxInFlight)
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / e.cfg.Rate)
	start := time.Now()
	deadline := start.Add(e.cfg.Duration)
	var offered, dropped, sent int
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.After(deadline) {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		offered++
		a, ok := e.nextArrival()
		if !ok {
			// All probed users mid-request: the arrival cannot keep
			// its schedule, so it is dropped, not deferred.
			dropped++
			continue
		}
		select {
		case sem <- struct{}{}:
			sent++
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.execute(a, rec)
				<-sem
			}()
		default:
			if a.u != nil {
				a.u.mu.Unlock()
			}
			dropped++
		}
	}
	wg.Wait()
	return rec.summarize(e.cfg.Rate, offered, sent, dropped, time.Since(start))
}

// nextArrival synthesizes the next request. It runs on the scheduler
// goroutine only, so the rng and generator need no locking. For signed
// ops it TryLocks the zipf-chosen user and probes forward through the
// population on contention — never blocking the arrival schedule.
func (e *Engine) nextArrival() (arrival, bool) {
	w := e.rng.Float64() * e.cfg.Mix.total()
	m := e.cfg.Mix
	switch {
	case w < m.Publish:
		u, ok := e.lockUser()
		if !ok {
			return arrival{}, false
		}
		return arrival{op: OpPublish, u: u, st: e.gen.Factual()}, true
	case w < m.Publish+m.Relay:
		u, ok := e.lockUser()
		if !ok {
			return arrival{}, false
		}
		return arrival{op: OpRelay, u: u, art: e.pickArticle(e.azipf.Uint64())}, true
	case w < m.Publish+m.Relay+m.Vote:
		u, ok := e.lockUser()
		if !ok {
			return arrival{}, false
		}
		return arrival{op: OpVote, u: u, art: e.pickArticle(e.azipf.Uint64()), vote: e.rng.Intn(2) == 0}, true
	case w < m.Publish+m.Relay+m.Vote+m.Search:
		return arrival{op: OpSearch, q: e.queries[e.rng.Intn(len(e.queries))]}, true
	case w < m.Publish+m.Relay+m.Vote+m.Search+m.BlobRead:
		return arrival{op: OpBlobRead, art: e.pickArticle(e.azipf.Uint64())}, true
	default:
		return arrival{op: OpIngest, st: e.gen.Factual()}, true
	}
}

// lockUser draws a zipf user and linearly probes for one not currently
// mid-request.
func (e *Engine) lockUser() (*user, bool) {
	first := int(e.uzipf.Uint64())
	for i := 0; i < len(e.users); i++ {
		u := e.users[(first+i)%len(e.users)]
		if u.mu.TryLock() {
			return u, true
		}
	}
	return nil, false
}

// execute performs one arrival and records its outcome. It owns the
// arrival's user lock.
func (e *Engine) execute(a arrival, rec *recorder) {
	if a.u != nil {
		defer a.u.mu.Unlock()
	}
	t0 := time.Now()
	switch a.op {
	case OpPublish:
		id := e.nextArticleID()
		cid, out, err := e.client.UploadBlob(a.st.Text)
		if out != OutcomeOK {
			rec.record(a.op, out, 0, err)
			return
		}
		payload, err := supplychain.PublishRefPayload(id, a.st.Topic, cid, len(a.st.Text), nil, "")
		if err != nil {
			rec.record(a.op, OutcomeFailed, 0, err)
			return
		}
		out, err = e.submitSigned(a.u, "news.publish", payload)
		rec.record(a.op, out, time.Since(t0), err)
		if out == OutcomeOK {
			e.addArticle(article{id: id, cid: cid, size: len(a.st.Text), topic: a.st.Topic})
		}
	case OpRelay:
		id := e.nextArticleID()
		payload, err := supplychain.PublishRefPayload(id, a.art.topic, a.art.cid, a.art.size, []string{a.art.id}, corpus.OpVerbatim)
		if err != nil {
			rec.record(a.op, OutcomeFailed, 0, err)
			return
		}
		out, err := e.submitSigned(a.u, "news.publish", payload)
		rec.record(a.op, out, time.Since(t0), err)
		if out == OutcomeOK {
			e.addArticle(article{id: id, cid: a.art.cid, size: a.art.size, topic: a.art.topic})
		}
	case OpVote:
		payload, err := ranking.VotePayload(a.art.id, a.vote, 1)
		if err != nil {
			rec.record(a.op, OutcomeFailed, 0, err)
			return
		}
		out, err := e.submitSigned(a.u, "rank.vote", payload)
		rec.record(a.op, out, time.Since(t0), err)
	case OpSearch:
		_, out, err := e.client.Search(a.q, 10)
		rec.record(a.op, out, time.Since(t0), err)
	case OpBlobRead:
		out, err := e.client.ReadBlob(a.art.cid)
		rec.record(a.op, out, time.Since(t0), err)
	case OpIngest:
		out, err := e.client.Ingest("loadgen", string(a.st.Topic), a.st.Text)
		rec.record(a.op, out, time.Since(t0), err)
	}
}

// submitSigned builds and posts one transaction under the (held) user
// lock. The nonce advances only on acceptance: a 429 happens before
// mempool admission, so the nonce is untouched and simply reused — no
// gap forms. On an unexpected failure the nonce is resynchronized from
// the chain, since the client can no longer know whether it landed.
func (e *Engine) submitSigned(u *user, kind string, payload []byte) (Outcome, error) {
	tx, err := ledger.NewTx(u.kp, u.nonce, kind, payload)
	if err != nil {
		return OutcomeFailed, err
	}
	out, err := e.client.SubmitTx(tx)
	switch out {
	case OutcomeOK:
		u.nonce++
	case OutcomeFailed:
		if n, nerr := e.client.NextNonce(u.addr); nerr == nil {
			u.nonce = n
		}
	}
	return out, err
}
