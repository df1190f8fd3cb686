// Package simnet provides a deterministic discrete-event network simulator.
//
// The paper's platform "demands a high performance blockchain network since
// the news propagation path is globally connected" (§VII). We cannot deploy
// a global validator fleet inside a test process, so consensus tests, the
// in-process cluster of internal/chaos and the experiments run over this
// simulator instead: nodes exchange messages across links with
// configurable latency distributions and loss rates, time is virtual (no
// wall-clock sleeps), and every run is reproducible from a seed.
// Partitions can be injected to exercise fault paths. The daemon never
// links it.
//
// Network is the deterministic implementation of transport.Network; the
// protocol layers hold only that interface, so the same state machines run
// over internal/transport/tcp against real sockets. The node-facing types
// are aliases of the transport package's, which keeps the two substrates
// interchangeable without conversions and preserves the behaviour of every
// pre-transport test bit for bit.
package simnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
)

// Compile-time check: the simulator is a transport.Network.
var _ transport.Network = (*Network)(nil)

// Errors returned by this package.
var (
	// ErrDuplicateNode indicates AddNode with an existing id.
	ErrDuplicateNode = errors.New("simnet: duplicate node")
	// ErrUnknownNode indicates a send to or from an unregistered node.
	ErrUnknownNode = errors.New("simnet: unknown node")
)

// NodeID identifies a node on the simulated network.
type NodeID = transport.NodeID

// Message is a payload in flight between two nodes. Sent records the
// virtual send time.
type Message = transport.Message

// Handler receives messages delivered to a node. Handlers run sequentially
// in virtual-time order; they may call Send/Broadcast/After on the network.
type Handler = transport.Handler

// LinkConfig describes delivery characteristics between a pair of nodes
// (applied directionally).
type LinkConfig struct {
	// BaseLatency is the minimum one-way delay.
	BaseLatency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// LossRate is the probability in [0,1) that a message is dropped.
	LossRate float64
	// CorruptRate is the probability in [0,1) that a message is passed
	// through the network's corrupter before delivery (see SetCorrupter).
	// Corruption models bit-flips in transit: the message still arrives,
	// but its payload no longer matches what the sender signed or encoded.
	CorruptRate float64
	// DuplicateRate is the probability in [0,1) that a second copy of the
	// message is delivered, with an independently sampled delay.
	DuplicateRate float64
	// ReorderRate is the probability in [0,1) that a message is held back
	// by ReorderDelay, letting later traffic overtake it.
	ReorderRate float64
	// ReorderDelay is the extra hold-back applied to reordered messages
	// (zero defaults to 4x BaseLatency plus the full jitter span).
	ReorderDelay time.Duration
}

// DefaultLink is used for node pairs without an explicit link config:
// a LAN-like 5ms ± 5ms link with no loss.
var DefaultLink = LinkConfig{BaseLatency: 5 * time.Millisecond, Jitter: 5 * time.Millisecond}

type eventKind int

const (
	eventDeliver eventKind = iota + 1
	eventTimer
)

type event struct {
	at   time.Duration
	seq  uint64 // tie-break for determinism
	kind eventKind
	msg  Message
	fn   func()
	node NodeID
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type linkKey struct{ from, to NodeID }

// Stats aggregates network-level counters.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int
	// Corrupted counts messages garbled in transit (delivered anyway).
	Corrupted int
	// Duplicated counts extra copies injected by DuplicateRate.
	Duplicated int
	// Reordered counts messages held back by ReorderRate.
	Reordered int
	// DroppedDetached counts messages lost because an endpoint was
	// detached (subset of Dropped).
	DroppedDetached int
	// Bytes is approximated by caller-provided message sizes; zero if the
	// caller never sets sizes.
	Bytes int64
}

// Network is a deterministic discrete-event network. It is not safe for
// concurrent use; all interaction happens from handlers during Run or from
// the owning goroutine between runs.
type Network struct {
	mu        sync.Mutex
	rng       *rand.Rand
	now       time.Duration
	seq       uint64
	queue     eventQueue
	handlers  map[NodeID]Handler
	links     map[linkKey]LinkConfig
	partition map[NodeID]int // partition group per node; absent = group 0
	detached  map[NodeID]bool
	stats     Stats
	sizer     func(Message) int
	corrupter func(Message) Message
}

// New creates a network seeded for reproducibility.
func New(seed int64) *Network {
	return &Network{
		rng:       rand.New(rand.NewSource(seed)),
		handlers:  make(map[NodeID]Handler),
		links:     make(map[linkKey]LinkConfig),
		partition: make(map[NodeID]int),
		detached:  make(map[NodeID]bool),
	}
}

// SetSizer installs a function estimating message size in bytes for stats.
func (n *Network) SetSizer(f func(Message) int) { n.sizer = f }

// AddNode registers a node and its message handler.
func (n *Network) AddNode(id NodeID, h Handler) error {
	if _, ok := n.handlers[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	n.handlers[id] = h
	return nil
}

// SetHandler replaces the handler for an existing node (used to wire nodes
// whose construction needs the network first).
func (n *Network) SetHandler(id NodeID, h Handler) error {
	if _, ok := n.handlers[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	n.handlers[id] = h
	return nil
}

// Nodes returns all node ids in sorted order.
func (n *Network) Nodes() []NodeID {
	out := make([]NodeID, 0, len(n.handlers))
	for id := range n.handlers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetLink sets the directional link config from a to b.
func (n *Network) SetLink(from, to NodeID, cfg LinkConfig) {
	n.links[linkKey{from, to}] = cfg
}

// SetAllLinks applies cfg to every ordered node pair.
func (n *Network) SetAllLinks(cfg LinkConfig) {
	ids := n.Nodes()
	for _, a := range ids {
		for _, b := range ids {
			if a != b {
				n.links[linkKey{a, b}] = cfg
			}
		}
	}
}

// Partition splits the nodes into groups; messages across groups are
// dropped until Heal is called. Nodes not listed stay in group 0.
func (n *Network) Partition(groups ...[]NodeID) {
	n.partition = make(map[NodeID]int)
	for gi, group := range groups {
		for _, id := range group {
			n.partition[id] = gi + 1
		}
	}
}

// Heal removes any partition.
func (n *Network) Heal() { n.partition = make(map[NodeID]int) }

// Detach takes a node off the network: messages to or from it are dropped
// until Reattach, modelling a crashed or unplugged machine. The node's
// handler registration and identity are preserved, so it can return with
// the same id. Local timers still fire (a crashed process's timers are the
// caller's concern, e.g. a stopped consensus node ignores them).
func (n *Network) Detach(id NodeID) { n.detached[id] = true }

// Reattach reverses Detach. Messages already lost while detached stay
// lost, as on a real network.
func (n *Network) Reattach(id NodeID) { delete(n.detached, id) }

// Detached reports whether the node is currently detached.
func (n *Network) Detached(id NodeID) bool { return n.detached[id] }

// SetCorrupter installs the function applied to messages selected by a
// link's CorruptRate. Nil restores the default corrupter, which nils the
// payload (the typed equivalent of an undecodable frame). Protocol-aware
// corrupters (e.g. flipping fields inside a signed vote) can be installed
// to exercise specific rejection paths.
func (n *Network) SetCorrupter(f func(Message) Message) { n.corrupter = f }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Stats returns a copy of the counters.
func (n *Network) Stats() Stats { return n.stats }

// Rand exposes the network's deterministic RNG so a fault schedule draws
// from the same stream as the network (keeps runs reproducible from one
// seed).
func (n *Network) Rand() *rand.Rand { return n.rng }

// Send schedules delivery of a message. Returns ErrUnknownNode if either
// endpoint is unregistered. Loss and partitions silently drop messages, as
// on a real network.
func (n *Network) Send(from, to NodeID, kind string, payload any) error {
	if _, ok := n.handlers[from]; !ok {
		return fmt.Errorf("%w: from %s", ErrUnknownNode, from)
	}
	if _, ok := n.handlers[to]; !ok {
		return fmt.Errorf("%w: to %s", ErrUnknownNode, to)
	}
	n.stats.Sent++
	msg := Message{From: from, To: to, Kind: kind, Payload: payload, Sent: n.now}
	if n.sizer != nil {
		n.stats.Bytes += int64(n.sizer(msg))
	}
	if n.detached[from] || n.detached[to] {
		n.stats.Dropped++
		n.stats.DroppedDetached++
		return nil
	}
	if n.partition[from] != n.partition[to] {
		n.stats.Dropped++
		return nil
	}
	cfg, ok := n.links[linkKey{from, to}]
	if !ok {
		cfg = DefaultLink
	}
	if cfg.LossRate > 0 && n.rng.Float64() < cfg.LossRate {
		n.stats.Dropped++
		return nil
	}
	if cfg.CorruptRate > 0 && n.rng.Float64() < cfg.CorruptRate {
		msg = n.corrupt(msg)
		n.stats.Corrupted++
	}
	if cfg.DuplicateRate > 0 && n.rng.Float64() < cfg.DuplicateRate {
		n.stats.Duplicated++
		n.push(&event{at: n.now + n.linkDelay(cfg), kind: eventDeliver, msg: msg})
	}
	delay := n.linkDelay(cfg)
	if cfg.ReorderRate > 0 && n.rng.Float64() < cfg.ReorderRate {
		n.stats.Reordered++
		extra := cfg.ReorderDelay
		if extra <= 0 {
			extra = 4*cfg.BaseLatency + cfg.Jitter
		}
		delay += extra
	}
	n.push(&event{at: n.now + delay, kind: eventDeliver, msg: msg})
	return nil
}

// linkDelay samples one delivery delay for the link.
func (n *Network) linkDelay(cfg LinkConfig) time.Duration {
	delay := cfg.BaseLatency
	if cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	return delay
}

// corrupt applies the installed (or default) corrupter to a message.
func (n *Network) corrupt(m Message) Message {
	if n.corrupter != nil {
		return n.corrupter(m)
	}
	m.Payload = nil
	return m
}

// Broadcast sends to every other node.
func (n *Network) Broadcast(from NodeID, kind string, payload any) error {
	for _, id := range n.Nodes() {
		if id == from {
			continue
		}
		if err := n.Send(from, id, kind, payload); err != nil {
			return err
		}
	}
	return nil
}

// After schedules fn to run at the given node after d of virtual time.
// Timers survive partitions (they are local to the node).
func (n *Network) After(node NodeID, d time.Duration, fn func()) {
	n.push(&event{at: n.now + d, kind: eventTimer, fn: fn, node: node})
}

func (n *Network) push(ev *event) {
	ev.seq = n.seq
	n.seq++
	heap.Push(&n.queue, ev)
}

// Step processes the next event. It returns false when the queue is empty.
func (n *Network) Step() bool {
	if n.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&n.queue).(*event)
	n.now = ev.at
	switch ev.kind {
	case eventDeliver:
		h, ok := n.handlers[ev.msg.To]
		if !ok {
			return true
		}
		// In-flight messages addressed to a node that detached after the
		// send are lost, as on a real crash.
		if n.detached[ev.msg.To] {
			n.stats.Dropped++
			n.stats.DroppedDetached++
			return true
		}
		n.stats.Delivered++
		h(ev.msg)
	case eventTimer:
		ev.fn()
	}
	return true
}

// Run processes events until the queue drains or virtual time exceeds
// until (zero means no limit). It returns the number of events processed.
func (n *Network) Run(until time.Duration) int {
	processed := 0
	for n.queue.Len() > 0 {
		if until > 0 && n.queue[0].at > until {
			n.now = until
			break
		}
		n.Step()
		processed++
	}
	return processed
}

// RunWhile processes events while cond() holds (checked before each event)
// and events remain. It returns the number of events processed.
func (n *Network) RunWhile(cond func() bool) int {
	processed := 0
	for n.queue.Len() > 0 && cond() {
		n.Step()
		processed++
	}
	return processed
}

// Pending returns the number of queued events.
func (n *Network) Pending() int { return n.queue.Len() }
