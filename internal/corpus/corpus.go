// Package corpus generates the synthetic labelled news corpus used across
// the reproduction: factual statements in the shape of official records,
// and fake derivatives produced by the paper's four modification operators
// (mixing, splitting, merging, inserting — §VI) plus outright fabrication.
//
// Substitution note (see DESIGN.md): the paper builds its factual database
// from real official records and evaluates on real social-media traces;
// offline we generate statements with the same statistical structure —
// including the §I Stanford finding that 72.3% of fake news is modified
// factual news — and retain ground-truth labels so accuracy metrics are
// computable.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// Kind labels how a statement came to be.
type Kind string

// Statement kinds.
const (
	KindFactual    Kind = "factual"
	KindModified   Kind = "modified"   // fake derived from a factual item
	KindFabricated Kind = "fabricated" // fake invented from nothing
)

// Op is a modification operator from the paper's propagation model (§VI:
// "mixing, splitting, merging, and inserting").
type Op string

// Modification operators.
const (
	OpMix      Op = "mix"      // splice half of another statement in
	OpSplit    Op = "split"    // keep a fragment, dropping context
	OpMerge    Op = "merge"    // concatenate with another statement
	OpInsert   Op = "insert"   // inject an emotional/false clause
	OpDistort  Op = "distort"  // change a number
	OpNegate   Op = "negate"   // flip the claim's polarity
	OpVerbatim Op = "verbatim" // no change (relay)
)

// ModOps are the operators that actually change content.
var ModOps = []Op{OpMix, OpSplit, OpMerge, OpInsert, OpDistort, OpNegate}

// ModifiedShare is the fraction of fakes derived from factual statements
// (the Stanford 72.3% statistic quoted in §I).
const ModifiedShare = 0.723

// Statement is one labelled news item.
type Statement struct {
	ID    string `json:"id"`
	Topic Topic  `json:"topic"`
	Text  string `json:"text"`
	Kind  Kind   `json:"kind"`
	// Parent is the ID of the factual statement a modified fake derives
	// from ("" for factual and fabricated items).
	Parent string `json:"parent,omitempty"`
	// AppliedOp is the operator that produced a modified fake.
	AppliedOp Op `json:"appliedOp,omitempty"`
}

// IsFake reports whether the statement is labelled fake.
func (s Statement) IsFake() bool { return s.Kind != KindFactual }

// Corpus is a labelled statement collection.
type Corpus struct {
	Statements []Statement
}

// Factual returns the factual subset.
func (c *Corpus) Factual() []Statement { return c.byKind(true) }

// Fakes returns the fake subset.
func (c *Corpus) Fakes() []Statement { return c.byKind(false) }

func (c *Corpus) byKind(factual bool) []Statement {
	var out []Statement
	for _, s := range c.Statements {
		if (s.Kind == KindFactual) == factual {
			out = append(out, s)
		}
	}
	return out
}

// Split partitions the corpus into train/test with the given train
// fraction, preserving order within each part.
func (c *Corpus) Split(trainFrac float64, rng *rand.Rand) (train, test []Statement) {
	idx := rng.Perm(len(c.Statements))
	cut := int(float64(len(idx)) * trainFrac)
	for i, j := range idx {
		if i < cut {
			train = append(train, c.Statements[j])
		} else {
			test = append(test, c.Statements[j])
		}
	}
	return train, test
}

// Generator produces deterministic synthetic statements from a seed.
type Generator struct {
	rng  *rand.Rand
	next int
}

// NewGenerator creates a generator with the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the generator's RNG so callers composing randomized
// workloads share one deterministic stream.
func (g *Generator) Rand() *rand.Rand { return g.rng }

func (g *Generator) id(prefix string) string {
	g.next++
	return fmt.Sprintf("%s-%06d", prefix, g.next)
}

func (g *Generator) pick(list []string) string { return list[g.rng.Intn(len(list))] }

// Factual generates one factual statement on a random topic.
func (g *Generator) Factual() Statement {
	topic := AllTopics[g.rng.Intn(len(AllTopics))]
	return g.FactualOn(topic)
}

// FactualOn generates one factual statement on the given topic.
func (g *Generator) FactualOn(topic Topic) Statement {
	subj := g.pick(subjectsByTopic[topic])
	verb := g.pick(verbsByTopic[topic])
	obj := g.pick(objectsByTopic[topic])
	qual := g.pick(qualifiers)
	if strings.Contains(qual, "%d to %d") {
		a := 40 + g.rng.Intn(60)
		b := g.rng.Intn(40)
		qual = fmt.Sprintf(qual, a, b)
	} else if strings.Contains(qual, "%d") {
		qual = fmt.Sprintf(qual, 100+g.rng.Intn(900))
	}
	text := fmt.Sprintf("%s %s %s %s", subj, verb, obj, qual)
	return Statement{ID: g.id("fact"), Topic: topic, Text: text, Kind: KindFactual}
}

// Modify derives a fake from a factual statement using a random operator
// (or the supplied one when op != ""). Per the paper, modified fakes also
// pick up emotional wording.
func (g *Generator) Modify(src Statement, op Op) Statement {
	if op == "" {
		op = ModOps[g.rng.Intn(len(ModOps))]
	}
	words := strings.Fields(src.Text)
	var text string
	switch op {
	case OpMix:
		other := g.FactualOn(src.Topic)
		ow := strings.Fields(other.Text)
		text = strings.Join(words[:len(words)/2], " ") + " " + strings.Join(ow[len(ow)/2:], " ")
	case OpSplit:
		cut := 1 + g.rng.Intn(len(words)/2+1)
		text = strings.Join(words[:cut], " ") + " " + g.pick(clickbait)
	case OpMerge:
		other := g.FactualOn(src.Topic)
		text = src.Text + " and " + other.Text
	case OpInsert:
		pos := g.rng.Intn(len(words) + 1)
		clause := g.pick(negativeEmotion) + " " + g.pick(clickbait)
		out := make([]string, 0, len(words)+2)
		out = append(out, words[:pos]...)
		out = append(out, clause)
		out = append(out, words[pos:]...)
		text = strings.Join(out, " ")
	case OpDistort:
		distorted := false
		out := make([]string, len(words))
		for i, w := range words {
			out[i] = w
			if !distorted && strings.IndexFunc(w, func(r rune) bool { return r >= '0' && r <= '9' }) >= 0 {
				out[i] = fmt.Sprintf("%d", g.rng.Intn(9000)+1000)
				distorted = true
			}
		}
		if !distorted {
			out = append(out, "costing", fmt.Sprintf("%d", g.rng.Intn(900)+100), "billion")
		}
		text = strings.Join(out, " ") + " " + g.pick(negativeEmotion)
	case OpNegate:
		text = replaceFirst(src.Text, map[string]string{
			"approve": "reject", "reject": "approve", "raised": "lowered",
			"lowered": "raised", "confirmed": "denied", "signed": "vetoed",
		})
		text += " " + g.pick(negativeEmotion) + " " + g.pick(negativeEmotion)
	default:
		text = src.Text
	}
	// Emotional colouring on top of the structural edit. Not every fake is
	// emotionally worded, which keeps the lexicon-only detector honest.
	if g.rng.Float64() < 0.45 {
		text = g.pick(negativeEmotion) + " " + text
	}
	return Statement{
		ID:        g.id("fake"),
		Topic:     src.Topic,
		Text:      text,
		Kind:      KindModified,
		Parent:    src.ID,
		AppliedOp: op,
	}
}

func replaceFirst(s string, subs map[string]string) string {
	for from, to := range subs {
		if strings.Contains(s, from) {
			return strings.Replace(s, from, to, 1)
		}
	}
	return s
}

// Fabricate invents a fake with no factual parent.
func (g *Generator) Fabricate() Statement {
	topic := AllTopics[g.rng.Intn(len(AllTopics))]
	claim := fmt.Sprintf(g.pick(fabricatedClaims), g.pick(objectsByTopic[topic]))
	text := g.pick(negativeEmotion) + " " + g.pick(clickbait) + " " + claim
	return Statement{ID: g.id("fab"), Topic: topic, Text: text, Kind: KindFabricated}
}

// Generate builds a corpus of nFactual factual statements plus nFake fakes
// in the paper's 72.3/27.7 modified/fabricated mix. Modified fakes derive
// from the generated factual set.
func (g *Generator) Generate(nFactual, nFake int) *Corpus {
	c := &Corpus{Statements: make([]Statement, 0, nFactual+nFake)}
	facts := make([]Statement, 0, nFactual)
	for i := 0; i < nFactual; i++ {
		s := g.Factual()
		facts = append(facts, s)
		c.Statements = append(c.Statements, s)
	}
	for i := 0; i < nFake; i++ {
		if len(facts) > 0 && g.rng.Float64() < ModifiedShare {
			src := facts[g.rng.Intn(len(facts))]
			c.Statements = append(c.Statements, g.Modify(src, ""))
			continue
		}
		c.Statements = append(c.Statements, g.Fabricate())
	}
	return c
}

// Tokenize lowercases and splits text into word tokens, stripping
// punctuation. Shared by the classifiers and the supply-chain differ.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
	})
	return fields
}

// EmotionScore returns the fraction of tokens drawn from the
// negative-emotion lexicon — the hand feature the paper's §I motivates.
func EmotionScore(text string) float64 { return EmotionShare(Tokenize(text)) }

// EmotionShare is EmotionScore of text already split by Tokenize.
func EmotionShare(toks []string) float64 {
	if len(toks) == 0 {
		return 0
	}
	hits := 0
	for _, t := range toks {
		if negativeLexicon[t] {
			hits++
		}
	}
	return float64(hits) / float64(len(toks))
}

// negativeLexicon is negativeEmotion as a set.
var negativeLexicon = func() map[string]bool {
	lex := make(map[string]bool, len(negativeEmotion))
	for _, w := range negativeEmotion {
		lex[w] = true
	}
	return lex
}()
