package supplychain

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/commitbus"
	"repro/internal/corpus"
)

// Commit-bus subscriber names (stable: they key checkpoint blobs).
const (
	// GraphSubscriberName identifies the supply-chain graph subscriber.
	GraphSubscriberName = "supplychain-graph"
	// ExpertMinerName identifies the expert-miner subscriber.
	ExpertMinerName = "expert-miner"
)

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

// ExpertMiner incrementally indexes committed items by topic so expert
// discovery (§VI, E8) scans only a topic's items instead of the whole
// ledger. It subscribes to the commit bus like every other derived index
// and snapshots into checkpoints.
type ExpertMiner struct {
	mu     sync.RWMutex
	topics map[corpus.Topic][]string
	seen   map[string]bool
}

var _ commitbus.Subscriber = (*ExpertMiner)(nil)

// NewExpertMiner creates an empty miner.
func NewExpertMiner() *ExpertMiner {
	return &ExpertMiner{
		topics: make(map[corpus.Topic][]string),
		seen:   make(map[string]bool),
	}
}

// Name implements commitbus.Subscriber.
func (m *ExpertMiner) Name() string { return ExpertMinerName }

// OnCommit implements commitbus.Subscriber: it records (topic, item)
// pairs straight from the published event attributes.
func (m *ExpertMiner) OnCommit(ev commitbus.CommitEvent) error {
	for _, rec := range ev.Receipts {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != ContractName || e.Type != "published" {
				continue
			}
			m.record(corpus.Topic(e.Attrs["topic"]), e.Attrs["id"])
		}
	}
	return nil
}

func (m *ExpertMiner) record(topic corpus.Topic, id string) {
	if id == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen[id] {
		return
	}
	m.seen[id] = true
	m.topics[topic] = append(m.topics[topic], id)
}

// TopicItems returns the committed item ids on a topic, in commit order.
func (m *ExpertMiner) TopicItems(topic corpus.Topic) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.topics[topic]...)
}

// Topics returns every indexed topic.
func (m *ExpertMiner) Topics() []corpus.Topic {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]corpus.Topic, 0, len(m.topics))
	for t := range m.topics {
		out = append(out, t)
	}
	return out
}

// minerSnapshot is the serialized form of the miner state.
type minerSnapshot struct {
	Topics map[corpus.Topic][]string `json:"topics"`
}

// Snapshot implements commitbus.Subscriber.
func (m *ExpertMiner) Snapshot() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return json.Marshal(minerSnapshot{Topics: m.topics})
}

// Restore implements commitbus.Subscriber.
func (m *ExpertMiner) Restore(data []byte) error {
	var snap minerSnapshot
	if len(data) > 0 {
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("supplychain: decode miner snapshot: %w", err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.topics = make(map[corpus.Topic][]string, len(snap.Topics))
	m.seen = make(map[string]bool)
	for t, ids := range snap.Topics {
		for _, id := range ids {
			if m.seen[id] {
				continue
			}
			m.seen[id] = true
			m.topics[t] = append(m.topics[t], id)
		}
	}
	return nil
}
