package supplychain

import (
	"sort"

	"repro/internal/corpus"
)

// Expert mining (§VI): "identifying the potential domain topic experts by
// AI analyzing the history of blockchain ledger to identify the fact news
// creators of a given domain topic". An account's expertise on a topic is
// the sum of trace scores of its contributions there, discounted by its
// fake output. Experiment E8 measures precision@k against the ground truth.

// ExpertScore is one account's standing on a topic.
type ExpertScore struct {
	Account string       `json:"account"`
	Topic   corpus.Topic `json:"topic"`
	// Factual is the summed trace score of the account's items.
	Factual float64 `json:"factual"`
	// Fake is the number of unrooted or heavily-modified items.
	Fake int `json:"fake"`
	// Items is the account's total items on the topic.
	Items int `json:"items"`
	// Score is the final expertise ranking key.
	Score float64 `json:"score"`
}

// Experts ranks accounts by factual contribution on a topic. It scans
// every item for the topic's and traces each of those, so its cost follows
// the whole ledger; items whose trace needs a body this node lacks are left
// out.
func (g *Graph) Experts(topic corpus.Topic, k int) ([]ExpertScore, error) {
	byAccount := make(map[string]*ExpertScore)
	onTopic := func(it *Item) bool { return it.Topic == topic }
	if err := g.traceEach(onTopic, func(it *Item, tr TraceResult) {
		es, ok := byAccount[it.Creator]
		if !ok {
			es = &ExpertScore{Account: it.Creator, Topic: topic}
			byAccount[it.Creator] = es
		}
		es.Items++
		if tr.Rooted && tr.Score >= ModificationThreshold {
			es.Factual += tr.Score
		} else {
			es.Fake++
		}
	}); err != nil {
		return nil, err
	}

	out := make([]ExpertScore, 0, len(byAccount))
	for _, es := range byAccount {
		// Fake output is heavily penalized: an expert is someone whose
		// record is consistently factual, not merely prolific.
		es.Score = es.Factual - 2*float64(es.Fake)
		out = append(out, *es)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Account < out[j].Account
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}
