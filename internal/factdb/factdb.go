// Package factdb implements the factual news database — contribution (1)
// of the paper and "the ground truth and corner stone" of the system (§VI).
//
// The database is a smart contract: records can only enter through (a) the
// genesis seeding path, standing in for "the library of speech records of
// law makers, and the official speech records of presidents and public
// figures", or (b) the promotion path, which admits a news item once the
// crowd-sourced ranking certifies it (experiment E9 sweeps the promotion
// threshold). Records are immutable ("managed by the blockchain smart
// contract for security and no one can modify") and anchored under a Merkle
// accumulator so clients can cheaply verify the root.
//
// The Go-side Index supports the trace-back query the supply-chain graph
// needs: does a given statement match (exactly or approximately) a fact?
package factdb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/merkle"
)

// ContractName routes factdb transactions.
const ContractName = "factdb"

// Errors returned by this package.
var (
	// ErrNotAuthority indicates a seed/promote from a non-authority.
	ErrNotAuthority = errors.New("factdb: sender is not a fact authority")
	// ErrDuplicateFact indicates a fact with an already-stored content hash.
	ErrDuplicateFact = errors.New("factdb: duplicate fact")
	// ErrFactNotFound indicates a lookup miss.
	ErrFactNotFound = errors.New("factdb: fact not found")
	// ErrBelowThreshold indicates a promotion with insufficient score.
	ErrBelowThreshold = errors.New("factdb: score below promotion threshold")
)

// Fact is one ground-truth record.
type Fact struct {
	ID     string       `json:"id"`
	Topic  corpus.Topic `json:"topic"`
	Text   string       `json:"text"`
	Source string       `json:"source"` // e.g. "official-record", "promoted"
	Height uint64       `json:"height"`
	// Score is the certification score at promotion time (1.0 for seeds).
	Score float64 `json:"score"`
}

// ContentKey returns the deduplication key for a fact text: the hex SHA-256
// of its token-normalized form (so trivial punctuation edits do not create
// "new" facts).
func ContentKey(text string) string {
	toks := corpus.Tokenize(text)
	h := sha256.New()
	for _, t := range toks {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seedArgs is the payload of factdb.seed and factdb.promote.
type seedArgs struct {
	ID    string       `json:"id"`
	Topic corpus.Topic `json:"topic"`
	Text  string       `json:"text"`
	Score float64      `json:"score"`
}

// Contract is the factual-database chaincode.
type Contract struct {
	// Genesis may seed official records.
	Genesis keys.Address
	// RankAuthority may promote ranked news (the platform's ranking
	// contract acts through this account).
	RankAuthority keys.Address
	// PromoteThreshold is the minimum certification score (default 0.9).
	PromoteThreshold float64
}

var _ contract.Contract = (*Contract)(nil)

// Name implements contract.Contract.
func (c *Contract) Name() string { return ContractName }

// Execute implements contract.Contract.
func (c *Contract) Execute(ctx *contract.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "seed":
		if ctx.Sender != c.Genesis {
			return nil, fmt.Errorf("%w: %s", ErrNotAuthority, ctx.Sender.Short())
		}
		return c.add(ctx, args, "official-record", 1.0, 0)
	case "promote":
		if ctx.Sender != c.Genesis && ctx.Sender != c.RankAuthority {
			return nil, fmt.Errorf("%w: %s", ErrNotAuthority, ctx.Sender.Short())
		}
		thr := c.PromoteThreshold
		if thr == 0 {
			thr = 0.9
		}
		return c.add(ctx, args, "promoted", -1, thr)
	case "get":
		return c.get(ctx, args)
	case "has":
		return c.has(ctx, args)
	case "list":
		return c.list(ctx)
	case "count":
		return c.count(ctx)
	default:
		return nil, fmt.Errorf("%w: factdb.%s", contract.ErrUnknownMethod, method)
	}
}

func (c *Contract) add(ctx *contract.Context, args []byte, source string, forceScore, threshold float64) ([]byte, error) {
	var in seedArgs
	if err := json.Unmarshal(args, &in); err != nil {
		return nil, fmt.Errorf("factdb: args: %w", err)
	}
	if in.Text == "" {
		return nil, errors.New("factdb: empty text")
	}
	score := in.Score
	if forceScore >= 0 {
		score = forceScore
	}
	if score < threshold {
		return nil, fmt.Errorf("%w: %.3f < %.3f", ErrBelowThreshold, score, threshold)
	}
	key := "fact/" + ContentKey(in.Text)
	if ok, err := ctx.Has(key); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateFact, in.ID)
	}
	f := Fact{ID: in.ID, Topic: in.Topic, Text: in.Text, Source: source, Height: ctx.Height, Score: score}
	raw, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("factdb: marshal: %w", err)
	}
	if err := ctx.Put(key, raw); err != nil {
		return nil, err
	}
	if err := ctx.Emit("fact_added", map[string]string{
		"id": f.ID, "source": source, "topic": string(f.Topic), "contentKey": ContentKey(in.Text),
	}); err != nil {
		return nil, err
	}
	return raw, nil
}

func (c *Contract) get(ctx *contract.Context, args []byte) ([]byte, error) {
	raw, err := ctx.Get("fact/" + string(args))
	if err != nil {
		return nil, fmt.Errorf("%w: key %s", ErrFactNotFound, string(args))
	}
	return raw, nil
}

func (c *Contract) has(ctx *contract.Context, args []byte) ([]byte, error) {
	ok, err := ctx.Has("fact/" + ContentKey(string(args)))
	if err != nil {
		return nil, err
	}
	if ok {
		return []byte("1"), nil
	}
	return []byte("0"), nil
}

func (c *Contract) list(ctx *contract.Context) ([]byte, error) {
	ks, err := ctx.Keys("fact/")
	if err != nil {
		return nil, err
	}
	facts := make([]Fact, 0, len(ks))
	for _, k := range ks {
		raw, err := ctx.Get(k)
		if err != nil {
			return nil, err
		}
		var f Fact
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("factdb: unmarshal %s: %w", k, err)
		}
		facts = append(facts, f)
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].ID < facts[j].ID })
	return json.Marshal(facts)
}

func (c *Contract) count(ctx *contract.Context) ([]byte, error) {
	ks, err := ctx.Keys("fact/")
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("%d", len(ks))), nil
}

// ---------------------------------------------------------------------------
// Client helpers.
// ---------------------------------------------------------------------------

// SeedPayload builds a factdb.seed payload.
func SeedPayload(id string, topic corpus.Topic, text string) ([]byte, error) {
	return json.Marshal(seedArgs{ID: id, Topic: topic, Text: text})
}

// PromotePayload builds a factdb.promote payload with the certification
// score assigned by the ranking mechanism.
func PromotePayload(id string, topic corpus.Topic, text string, score float64) ([]byte, error) {
	return json.Marshal(seedArgs{ID: id, Topic: topic, Text: text, Score: score})
}

// List returns all facts through a query.
func List(e *contract.Engine, asker keys.Address) ([]Fact, error) {
	raw, err := e.Query(asker, ContractName+".list", nil)
	if err != nil {
		return nil, err
	}
	var facts []Fact
	if err := json.Unmarshal(raw, &facts); err != nil {
		return nil, fmt.Errorf("factdb: decode list: %w", err)
	}
	return facts, nil
}

// Has reports whether a text matches a stored fact exactly (after token
// normalization).
func Has(e *contract.Engine, asker keys.Address, text string) (bool, error) {
	raw, err := e.Query(asker, ContractName+".has", []byte(text))
	if err != nil {
		return false, err
	}
	return string(raw) == "1", nil
}

// ---------------------------------------------------------------------------
// Index: similarity search + Merkle anchoring for trace-back.
// ---------------------------------------------------------------------------

// Match is a similarity hit against the factual database.
type Match struct {
	Fact       Fact
	Similarity float64 // token Jaccard in [0,1]; 1 = identical token set
}

// Index is an in-memory similarity index over facts, rebuilt from contract
// state. It also maintains the Merkle accumulator root over fact contents.
type Index struct {
	mu    sync.RWMutex
	facts []Fact
	// token -> fact positions (inverted index).
	inverted map[string][]int
	tokens   [][]string
	acc      *merkle.Accumulator
	seen     map[string]bool
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{
		inverted: make(map[string][]int),
		acc:      merkle.NewAccumulator(),
		seen:     make(map[string]bool),
	}
}

// Add inserts a fact (idempotent by content key).
func (ix *Index) Add(f Fact) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	key := ContentKey(f.Text)
	if ix.seen[key] {
		return
	}
	ix.seen[key] = true
	pos := len(ix.facts)
	ix.facts = append(ix.facts, f)
	toks := uniqueTokens(f.Text)
	ix.tokens = append(ix.tokens, toks)
	for _, t := range toks {
		ix.inverted[t] = append(ix.inverted[t], pos)
	}
	ix.acc.Add([]byte(key))
}

// Facts returns the indexed facts in insertion order.
func (ix *Index) Facts() []Fact {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]Fact(nil), ix.facts...)
}

// SubscriberName keys the fact index's blob in a durable checkpoint
// (store.Checkpoint.Subscribers).
const SubscriberName = "factdb-index"

// Snapshot serializes the index for a checkpoint: the facts in insertion
// order, which fixes the Merkle accumulator root on restore.
func (ix *Index) Snapshot() ([]byte, error) {
	return json.Marshal(ix.Facts())
}

// Restore replaces the index contents with a Snapshot blob's facts, added
// in order.
func (ix *Index) Restore(data []byte) error {
	var facts []Fact
	if len(data) > 0 {
		if err := json.Unmarshal(data, &facts); err != nil {
			return fmt.Errorf("factdb: decode index snapshot: %w", err)
		}
	}
	ix.mu.Lock()
	ix.facts = nil
	ix.inverted = make(map[string][]int)
	ix.tokens = nil
	ix.acc = merkle.NewAccumulator()
	ix.seen = make(map[string]bool)
	ix.mu.Unlock()
	for _, f := range facts {
		ix.Add(f)
	}
	return nil
}

// Rebuild loads every fact from the engine into a fresh index.
func Rebuild(e *contract.Engine, asker keys.Address) (*Index, error) {
	facts, err := List(e, asker)
	if err != nil {
		return nil, err
	}
	ix := NewIndex()
	for _, f := range facts {
		ix.Add(f)
	}
	return ix, nil
}

// Len returns the number of facts indexed.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.facts)
}

// Root returns the Merkle accumulator root over fact content keys.
func (ix *Index) Root() merkle.Hash {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.acc.Root()
}

// Contains reports an exact (token-normalized) match.
func (ix *Index) Contains(text string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.seen[ContentKey(text)]
}

// BestMatch returns the closest fact by token Jaccard similarity, or
// ok=false for an empty index or zero overlap.
func (ix *Index) BestMatch(text string) (Match, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	query := uniqueTokens(text)
	if len(query) == 0 || len(ix.facts) == 0 {
		return Match{}, false
	}
	overlap := make(map[int]int)
	for _, t := range query {
		for _, pos := range ix.inverted[t] {
			overlap[pos]++
		}
	}
	best, bestSim := -1, 0.0
	// Deterministic iteration: visit positions in order.
	positions := make([]int, 0, len(overlap))
	for pos := range overlap {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	for _, pos := range positions {
		inter := overlap[pos]
		union := len(query) + len(ix.tokens[pos]) - inter
		sim := float64(inter) / float64(union)
		if sim > bestSim {
			best, bestSim = pos, sim
		}
	}
	if best < 0 {
		return Match{}, false
	}
	return Match{Fact: ix.facts[best], Similarity: bestSim}, true
}

func uniqueTokens(text string) []string {
	toks := corpus.Tokenize(text)
	seen := make(map[string]bool, len(toks))
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Similarity computes the token Jaccard similarity of two texts directly.
func Similarity(a, b string) float64 {
	ta, tb := uniqueTokens(a), uniqueTokens(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	set := make(map[string]bool, len(ta))
	for _, t := range ta {
		set[t] = true
	}
	inter := 0
	for _, t := range tb {
		if set[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}
