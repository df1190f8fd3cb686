package supplychain

import (
	"encoding/json"
	"fmt"

	"repro/internal/commitbus"
)

// GraphSubscriberName identifies the supply-chain graph subscriber on the
// commit bus (stable: it keys the graph's checkpoint blob).
const GraphSubscriberName = "supplychain-graph"

// GraphSubscriber keeps the propagation DAG in sync with the chain by
// consuming published events from committed blocks. It reads no article
// body: the graph stores structure, so a validator that does not hold a
// body indexes the item all the same.
type GraphSubscriber struct {
	Graph *Graph
}

var _ commitbus.Subscriber = (*GraphSubscriber)(nil)

// Name implements commitbus.Subscriber.
func (s *GraphSubscriber) Name() string { return GraphSubscriberName }

// OnCommit implements commitbus.Subscriber: every item published in the
// block is inserted into the DAG. Commit order guarantees parents
// precede children, and the contract has already rejected duplicates and
// orphans, so AddItem failures are real index divergence and surface as
// subscriber lag.
func (s *GraphSubscriber) OnCommit(ev commitbus.CommitEvent) error {
	for _, rec := range ev.Receipts {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != ContractName || e.Type != "published" {
				continue
			}
			var it Item
			if err := json.Unmarshal(rec.Result, &it); err != nil {
				return fmt.Errorf("supplychain: decode published result: %w", err)
			}
			if err := s.Graph.AddItem(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot implements commitbus.Subscriber: the items in insertion order,
// off-chain ones without text.
func (s *GraphSubscriber) Snapshot() ([]byte, error) {
	return json.Marshal(s.Graph.Items())
}

// Restore implements commitbus.Subscriber. A snapshot written before the
// graph stopped holding bodies carries each off-chain item's text; AddItem
// drops it.
func (s *GraphSubscriber) Restore(data []byte) error {
	var items []Item
	if len(data) > 0 {
		if err := json.Unmarshal(data, &items); err != nil {
			return fmt.Errorf("supplychain: decode graph snapshot: %w", err)
		}
	}
	return s.Graph.Reset(items)
}
