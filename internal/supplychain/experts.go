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

// Experts ranks accounts by factual contribution on a topic. traces must
// come from TraceAll on the same graph.
func (g *Graph) Experts(topic corpus.Topic, traces map[string]TraceResult, k int) []ExpertScore {
	g.mu.RLock()
	byAccount := make(map[string]*ExpertScore)
	topicIdx, known := g.strIdx[string(topic)]
	for i := 0; known && i < len(g.nodes); i++ {
		n := &g.nodes[i]
		if n.topic != topicIdx {
			continue
		}
		tr, ok := traces[n.id]
		if !ok {
			continue
		}
		creator := g.strs[n.creator]
		es, ok := byAccount[creator]
		if !ok {
			es = &ExpertScore{Account: creator, Topic: topic}
			byAccount[creator] = es
		}
		es.Items++
		if tr.Rooted && tr.Score >= ModificationThreshold {
			es.Factual += tr.Score
		} else {
			es.Fake++
		}
	}
	g.mu.RUnlock()

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
	return out
}

// Communities groups accounts by label propagation over the interaction
// graph (an undirected edge joins the creators of a child item and each of
// its parents). The paper uses this to "identify the groups/communities
// persons belong to" for targeted interventions (§VI).
func (g *Graph) Communities(rounds int) map[string]int {
	g.mu.RLock()
	neighbors := make(map[string]map[string]int)
	addEdge := func(a, b string) {
		if a == b {
			return
		}
		if neighbors[a] == nil {
			neighbors[a] = make(map[string]int)
		}
		if neighbors[b] == nil {
			neighbors[b] = make(map[string]int)
		}
		neighbors[a][b]++
		neighbors[b][a]++
	}
	for i := range g.nodes {
		for _, p := range g.nodes[i].parents {
			addEdge(g.strs[g.nodes[i].creator], g.strs[g.nodes[p].creator])
		}
	}
	g.mu.RUnlock()

	accounts := make([]string, 0, len(neighbors))
	for a := range neighbors {
		accounts = append(accounts, a)
	}
	sort.Strings(accounts)
	label := make(map[string]int, len(accounts))
	for i, a := range accounts {
		label[a] = i
	}
	if rounds <= 0 {
		rounds = 10
	}
	for r := 0; r < rounds; r++ {
		changed := false
		for _, a := range accounts {
			// Adopt the most frequent neighbor label (weighted by edge
			// multiplicity); ties break toward the smallest label for
			// determinism.
			counts := make(map[int]int)
			for n, w := range neighbors[a] {
				counts[label[n]] += w
			}
			bestLabel, bestCount := label[a], 0
			labels := make([]int, 0, len(counts))
			for l := range counts {
				labels = append(labels, l)
			}
			sort.Ints(labels)
			for _, l := range labels {
				if counts[l] > bestCount {
					bestLabel, bestCount = l, counts[l]
				}
			}
			if bestLabel != label[a] {
				label[a] = bestLabel
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return label
}
