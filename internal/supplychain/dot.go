package supplychain

import (
	"fmt"
	"io"

	"repro/internal/corpus"
)

// WriteDOT renders the supply-chain graph in Graphviz DOT format, colored
// by trace outcome: factual-rooted items are green, modified descendants
// are amber (darkening with modification), unverifiable items are red.
// Edges are labelled with their propagation operator. This is the Fig. 4
// picture, generated from live ledger state in two scans of it (nodes,
// then edges):
//
//	dot -Tsvg graph.dot > graph.svg
func (g *Graph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph newschain {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=BT;")
	fmt.Fprintln(w, "  node [style=filled, fontname=\"sans-serif\"];")
	if err := g.src.ScanItems(func(it Item) error {
		color := "#e05252" // unverifiable: red
		if tr, err := g.Trace(it.ID); err == nil && tr.Rooted {
			switch {
			case tr.Score >= ModificationThreshold:
				color = "#58a55c" // factual: green
			case tr.Score >= 0.5:
				color = "#e8b339" // lightly modified: amber
			default:
				color = "#e07b39" // heavily modified: orange
			}
		}
		_, err := fmt.Fprintf(w, "  %q [fillcolor=%q, label=\"%s\\n%s\"];\n",
			it.ID, color, it.ID, it.Creator[:min(8, len(it.Creator))])
		return err
	}); err != nil {
		return err
	}
	if err := g.src.ScanItems(func(it Item) error {
		op := string(it.Op)
		if op == "" {
			op = string(corpus.OpVerbatim)
		}
		for _, p := range it.Parents {
			if _, err := fmt.Fprintf(w, "  %q -> %q [label=%q];\n", it.ID, p, op); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
