package experiments

import (
	"strconv"
	"time"

	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/supplychain"
)

// e3Config sizes the process-supply-chain baseline (Fig. 3).
type e3Config struct {
	StageCounts []int
	Assets      int
}

// defaultE3 returns the standard configuration.
func defaultE3() e3Config { return e3Config{StageCounts: []int{4, 8, 16}, Assets: 1000} }

// runE3 measures the Fig. 3 baseline: a pre-configured workflow chain
// whose trace cost is O(stages) and independent of participant count.
func runE3(cfg e3Config) (*Table, error) {
	t := &Table{
		Title:  "Process supply chain (Fig. 3): fixed workflow trace cost",
		Claim:  "pre-configured workflow chains trace in O(stages), independent of scale",
		Header: []string{"stages", "assets", "avg_path_len", "trace_ns"},
	}
	for _, stages := range cfg.StageCounts {
		names := make([]string, stages)
		for i := range names {
			names[i] = "stage" + strconv.Itoa(i)
		}
		pc, err := supplychain.NewProcessChain(names, nil)
		if err != nil {
			return nil, err
		}
		for a := 0; a < cfg.Assets; a++ {
			id := "asset" + strconv.Itoa(a)
			if err := pc.Register(id, "actor0"); err != nil {
				return nil, err
			}
			for s := 1; s < stages; s++ {
				if err := pc.Advance(id, "actor"+strconv.Itoa(s), ""); err != nil {
					return nil, err
				}
			}
		}
		start := time.Now()
		var pathLen int
		for a := 0; a < cfg.Assets; a++ {
			trace, err := pc.Trace("asset" + strconv.Itoa(a))
			if err != nil {
				return nil, err
			}
			pathLen += len(trace)
		}
		elapsed := time.Since(start)
		t.AddRow(d(stages), d(cfg.Assets),
			f1(float64(pathLen)/float64(cfg.Assets)),
			d(int(elapsed.Nanoseconds()/int64(cfg.Assets))))
	}
	return t, nil
}

// e4Config sizes the dynamic news-supply-chain experiment (Fig. 4).
type e4Config struct {
	ItemCounts []int
	Seed       int64
}

// defaultE4 returns the standard configuration.
func defaultE4() e4Config { return e4Config{ItemCounts: []int{100, 1000, 10000, 100000}, Seed: 4} }

// runE4 builds news propagation DAGs of growing size — consumers relay,
// modify, mix and merge (Fig. 4's "much complicated and dynamic network
// architecture") — and measures graph shape and trace-back latency.
func runE4(cfg e4Config) (*Table, error) {
	t := &Table{
		Title:  "News supply chain (Fig. 4): dynamic graph trace cost vs scale",
		Claim:  "the news graph is large and dynamic, yet trace-back stays tractable",
		Header: []string{"items", "edges", "max_depth", "rooted_frac", "avg_trace_us"},
	}
	gen := corpus.NewGenerator(cfg.Seed)
	rng := gen.Rand()
	ops := []corpus.Op{corpus.OpVerbatim, corpus.OpVerbatim, corpus.OpVerbatim, corpus.OpInsert, corpus.OpMix, corpus.OpMerge, corpus.OpSplit}

	for _, n := range cfg.ItemCounts {
		ix := factdb.NewIndex()
		facts := make([]corpus.Statement, 0, 64)
		for i := 0; i < 64; i++ {
			s := gen.Factual()
			facts = append(facts, s)
			ix.Add(factdb.Fact{ID: s.ID, Topic: s.Topic, Text: s.Text})
		}
		items := make(supplychain.ItemMap, n)
		g := supplychain.NewGraph(items, ix)
		texts := make([]string, n)
		// Roots: a mix of factual republications and fabrications.
		roots := n / 10
		if roots < 8 {
			roots = 8
		}
		for i := 0; i < n; i++ {
			id := "n" + strconv.Itoa(i)
			var item supplychain.Item
			if i < roots {
				var text string
				if rng.Float64() < 0.7 {
					text = facts[rng.Intn(len(facts))].Text
				} else {
					text = gen.Fabricate().Text
				}
				texts[i] = text
				item = supplychain.Item{ID: id, Topic: corpus.TopicPolitics, Text: text, Creator: "acct" + strconv.Itoa(i%97)}
			} else {
				parentIdx := rng.Intn(i)
				parent := "n" + strconv.Itoa(parentIdx)
				op := ops[rng.Intn(len(ops))]
				text := texts[parentIdx]
				parents := []string{parent}
				if op != corpus.OpVerbatim {
					src := corpus.Statement{ID: parent, Topic: corpus.TopicPolitics, Text: text}
					text = gen.Modify(src, op).Text
					if op == corpus.OpMix || op == corpus.OpMerge {
						second := rng.Intn(i)
						parents = append(parents, "n"+strconv.Itoa(second))
					}
				}
				texts[i] = text
				item = supplychain.Item{
					ID: id, Topic: corpus.TopicPolitics, Text: text,
					Creator: "acct" + strconv.Itoa(rng.Intn(997)),
					Parents: dedupe(parents), Op: op,
				}
			}
			items[id] = item
		}
		stats, err := g.Stats()
		if err != nil {
			return nil, err
		}
		// Trace a sample of items.
		sample := 200
		if sample > n {
			sample = n
		}
		rooted := 0
		start := time.Now()
		for s := 0; s < sample; s++ {
			id := "n" + strconv.Itoa(rng.Intn(n))
			res, err := g.Trace(id)
			if err != nil {
				return nil, err
			}
			if res.Rooted {
				rooted++
			}
		}
		elapsed := time.Since(start)
		t.AddRow(d(stats.Items), d(stats.Edges), d(stats.MaxDepth),
			f3(float64(rooted)/float64(sample)),
			f1(float64(elapsed.Microseconds())/float64(sample)))
	}
	return t, nil
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
