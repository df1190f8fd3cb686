package supplychain

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/corpus"
)

// WriteDOT renders the supply-chain graph in Graphviz DOT format, colored
// by trace outcome: factual-rooted items are green, modified descendants
// are amber (darkening with modification), unverifiable items are red.
// Edges are labelled with their propagation operator. This is the Fig. 4
// picture, generated from live ledger state:
//
//	dot -Tsvg graph.dot > graph.svg
func (g *Graph) WriteDOT(w io.Writer, traces map[string]TraceResult) error {
	if traces == nil {
		traces = g.TraceAll()
	}
	g.mu.RLock()
	ids := make([]string, len(g.nodes))
	for i := range g.nodes {
		ids[i] = g.nodes[i].id
	}
	sort.Strings(ids)

	if _, err := fmt.Fprintln(w, "digraph newschain {"); err != nil {
		g.mu.RUnlock()
		return err
	}
	fmt.Fprintln(w, "  rankdir=BT;")
	fmt.Fprintln(w, "  node [style=filled, fontname=\"sans-serif\"];")
	for _, id := range ids {
		creator := g.strs[g.nodes[g.byID[id]].creator]
		color := "#e05252" // unverifiable: red
		if tr, ok := traces[id]; ok && tr.Rooted {
			switch {
			case tr.Score >= ModificationThreshold:
				color = "#58a55c" // factual: green
			case tr.Score >= 0.5:
				color = "#e8b339" // lightly modified: amber
			default:
				color = "#e07b39" // heavily modified: orange
			}
		}
		fmt.Fprintf(w, "  %q [fillcolor=%q, label=\"%s\\n%s\"];\n",
			id, color, id, creator[:minInt(8, len(creator))])
	}
	for _, id := range ids {
		n := &g.nodes[g.byID[id]]
		for _, p := range n.parents {
			op := g.strs[n.op]
			if op == "" {
				op = string(corpus.OpVerbatim)
			}
			fmt.Fprintf(w, "  %q -> %q [label=%q];\n", id, g.nodes[p].id, op)
		}
	}
	g.mu.RUnlock()
	_, err := fmt.Fprintln(w, "}")
	return err
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
