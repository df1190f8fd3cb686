package experiments

import (
	"strconv"

	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/supplychain"
)

// e6Config sizes the accountability experiment.
type e6Config struct {
	Depths []int
	Chains int
	Seed   int64
}

// defaultE6 returns the standard configuration.
func defaultE6() e6Config { return e6Config{Depths: []int{2, 4, 8, 16, 32}, Chains: 60, Seed: 6} }

// runE6 quantifies §IV's accountability claim: build relay chains from a
// factual root with one modifying account at a random position, then check
// how often the trace identifies that account as the originator.
func runE6(cfg e6Config) (*Table, error) {
	t := &Table{
		Title:  "Originator accountability vs propagation depth",
		Claim:  "people who create fake news can be identified and located for accountability",
		Header: []string{"depth", "chains", "originator_found_frac", "rooted_frac"},
	}
	gen := corpus.NewGenerator(cfg.Seed)
	rng := gen.Rand()
	for _, depth := range cfg.Depths {
		found, rooted := 0, 0
		for c := 0; c < cfg.Chains; c++ {
			ix := factdb.NewIndex()
			fact := gen.Factual()
			ix.Add(factdb.Fact{ID: fact.ID, Topic: fact.Topic, Text: fact.Text})
			items := supplychain.ItemMap{}
			g := supplychain.NewGraph(items, ix)

			prefix := "c" + strconv.Itoa(c) + "d" + strconv.Itoa(depth)
			modAt := 1 + rng.Intn(depth) // position of the modification
			culprit := ""
			text := fact.Text
			items[prefix+"-0"] = supplychain.Item{
				ID: prefix + "-0", Topic: fact.Topic, Text: text, Creator: "acct-root",
			}
			for hop := 1; hop <= depth; hop++ {
				id := prefix + "-" + strconv.Itoa(hop)
				creator := "acct-" + strconv.Itoa(hop)
				op := corpus.OpVerbatim
				if hop == modAt {
					src := corpus.Statement{ID: id, Topic: fact.Topic, Text: text}
					text = gen.Modify(src, corpus.OpInsert).Text
					op = corpus.OpInsert
					culprit = creator
				}
				items[id] = supplychain.Item{
					ID: id, Topic: fact.Topic, Text: text, Creator: creator,
					Parents: []string{prefix + "-" + strconv.Itoa(hop-1)}, Op: op,
				}
			}
			res, err := g.Trace(prefix + "-" + strconv.Itoa(depth))
			if err != nil {
				return nil, err
			}
			if res.Rooted {
				rooted++
			}
			if res.Originator == culprit && culprit != "" {
				found++
			}
		}
		t.AddRow(d(depth), d(cfg.Chains),
			f3(float64(found)/float64(cfg.Chains)),
			f3(float64(rooted)/float64(cfg.Chains)))
	}
	return t, nil
}

// e8Config sizes the expert-discovery experiment.
type e8Config struct {
	Experts  int // accounts with consistently factual output
	Amateurs int // mixed output
	Trolls   int // fake output
	ItemsPer int
	K        int
	Seed     int64
}

// defaultE8 returns the standard configuration.
func defaultE8() e8Config {
	return e8Config{Experts: 5, Amateurs: 10, Trolls: 5, ItemsPer: 8, K: 5, Seed: 8}
}

// runE8 measures §VI's expert-identification mechanism: precision@k of the
// ledger-mined expert list against the ground-truth expert set.
func runE8(cfg e8Config) (*Table, error) {
	t := &Table{
		Title:  "Domain-expert discovery from ledger history (precision@k)",
		Claim:  "AI analysis of the ledger identifies factual creators as topic experts",
		Header: []string{"topic", "experts", "candidates", "precision_at_k"},
	}
	gen := corpus.NewGenerator(cfg.Seed)
	rng := gen.Rand()

	for _, topic := range []corpus.Topic{corpus.TopicPolitics, corpus.TopicHealth} {
		ix := factdb.NewIndex()
		var facts []corpus.Statement
		for i := 0; i < 80; i++ {
			s := gen.FactualOn(topic)
			facts = append(facts, s)
			ix.Add(factdb.Fact{ID: s.ID, Topic: s.Topic, Text: s.Text})
		}
		items := supplychain.ItemMap{}
		truth := make(map[string]bool)
		post := func(account, text string) {
			id := "i" + strconv.Itoa(len(items)+1)
			items[id] = supplychain.Item{ID: id, Topic: topic, Text: text, Creator: account}
		}
		for e := 0; e < cfg.Experts; e++ {
			acct := string(topic) + "-expert" + strconv.Itoa(e)
			truth[acct] = true
			for i := 0; i < cfg.ItemsPer; i++ {
				post(acct, facts[rng.Intn(len(facts))].Text)
			}
		}
		for a := 0; a < cfg.Amateurs; a++ {
			acct := string(topic) + "-amateur" + strconv.Itoa(a)
			for i := 0; i < cfg.ItemsPer; i++ {
				if rng.Float64() < 0.45 {
					post(acct, facts[rng.Intn(len(facts))].Text)
					continue
				}
				post(acct, gen.Fabricate().Text)
			}
		}
		for tr := 0; tr < cfg.Trolls; tr++ {
			acct := string(topic) + "-troll" + strconv.Itoa(tr)
			for i := 0; i < cfg.ItemsPer; i++ {
				post(acct, gen.Fabricate().Text)
			}
		}
		top, err := supplychain.NewGraph(items, ix).Experts(topic, cfg.K)
		if err != nil {
			return nil, err
		}
		hit := 0
		for _, es := range top {
			if truth[es.Account] {
				hit++
			}
		}
		t.AddRow(string(topic), d(cfg.Experts), d(cfg.Experts+cfg.Amateurs+cfg.Trolls),
			f3(float64(hit)/float64(len(top))))
	}
	return t, nil
}
