// Package transport defines the node-addressed messaging substrate that
// consensus, mempool relay and the blob retrieval protocol run over. It is the
// seam between "simulated" and "production" deployments of the platform:
//
//   - internal/simnet implements Network as a deterministic discrete-event
//     simulator (virtual time, seeded randomness, injectable faults) — the
//     substrate of every reproducible protocol test;
//   - internal/transport/tcp implements Network over real sockets with
//     length-prefixed framing, a version/node-ID handshake and per-peer
//     reconnecting outbound queues — the substrate of cmd/trustnewsd
//     cluster mode and the internal/e2e multi-process harness.
//
// Protocol layers hold only the Network interface, so the same consensus
// state machine that runs under the chaos harness in virtual time drives a
// real multi-process cluster over loopback TCP unchanged.
//
// The contract every implementation must honour:
//
//   - Handlers and After callbacks of one node are serialized: an
//     implementation never runs two of them concurrently for the same
//     node. Protocol state machines (consensus.Node in particular) rely
//     on this and take no locks.
//   - Send is asynchronous and may be called from any goroutine. Delivery
//     is not guaranteed (loss, partitions, dead peers); a nil error means
//     the message was accepted for delivery, not that it arrived.
//   - A non-nil Send error is a local, observable transport failure — an
//     unknown peer, a full outbound queue (backpressure), a closed
//     transport. Callers must not silently discard it; at minimum it is
//     counted through Metrics.
package transport

import (
	"strings"
	"time"

	"repro/internal/telemetry"
)

// NodeID identifies a node on the network. Simulated and TCP deployments
// share the address space, so a validator keeps one identity across both.
type NodeID string

// MaxFrame bounds one encoded message: the TCP framing refuses to read or
// write a larger frame (a hostile length prefix cannot demand gigabytes),
// the wire codec to encode one, and block sync sizes its answers to fit.
const MaxFrame = 1 << 22 // 4 MiB

// Message is a payload in flight between two nodes. Over the simulated
// network payloads are shared Go values; over TCP they round-trip through
// the deterministic wire codec (internal/transport/wire), which decodes
// into the same concrete types, so handlers type-switch identically on
// both substrates.
type Message struct {
	From    NodeID
	To      NodeID
	Kind    string
	Payload any
	Sent    time.Duration // transport time at send (virtual or monotonic)
}

// Handler receives messages delivered to a node. Calls for one node are
// serialized by the transport; handlers may call Send/After re-entrantly.
type Handler func(m Message)

// Network is the substrate interface protocol layers program against.
type Network interface {
	// AddNode registers a node and its message handler. TCP transports
	// host exactly one local node; the simulator hosts many.
	AddNode(id NodeID, h Handler) error
	// SetHandler replaces the handler of an already-registered node (the
	// crash/restart path: a recovered node takes over its address).
	SetHandler(id NodeID, h Handler) error
	// Send schedules delivery of a message from a local node to a peer.
	// Losses are silent, like a real network; errors are local failures
	// (unknown endpoint, backpressure, closed transport).
	Send(from, to NodeID, kind string, payload any) error
	// After schedules fn on the node's serialized event loop after d of
	// transport time. Timers are local to the node and survive network
	// faults.
	After(node NodeID, d time.Duration, fn func())
	// Now returns the transport clock: virtual time on the simulator,
	// monotonic time since start over TCP.
	Now() time.Duration
}

// Metrics is the transport-layer instrument set, registered on the PR 3
// telemetry registry under trustnews_transport_*. The split of who
// increments what keeps every series single-writer:
//
//   - Sends / SendErrors are counted at the protocol layer (consensus
//     routes every outbound message through them — the fix for the
//     send-error swallowing the simnet era allowed);
//   - SendErrors is additionally incremented by the TCP writer when an
//     already-enqueued frame fails on the socket (an error the caller
//     cannot see);
//   - Reconnects, BytesIn/BytesOut, KindBytesOut and FramesIn are
//     wire-level and only move on a real transport. KindBytesOut splits
//     BytesOut by message kind, so a node can say where its wire bytes go.
//
// Every field is nil-safe (a nil registry hands out nil counters).
type Metrics struct {
	Sends      *telemetry.Counter
	SendErrors *telemetry.Counter
	Reconnects *telemetry.Counter
	BytesIn    *telemetry.Counter
	BytesOut   *telemetry.Counter
	FramesIn   *telemetry.Counter

	KindBytesOut *telemetry.CounterVec
}

// NewMetrics registers (or re-binds, the registry deduplicates by name)
// the transport counter set on reg. A nil registry yields all-nil,
// no-op instruments.
func NewMetrics(reg *telemetry.Registry) Metrics {
	return Metrics{
		Sends:      reg.Counter("trustnews_transport_sends_total", "Messages handed to the transport for delivery."),
		SendErrors: reg.Counter("trustnews_transport_send_errors_total", "Transport sends that failed locally (unknown peer, full queue, dead socket)."),
		Reconnects: reg.Counter("trustnews_transport_reconnects_total", "Outbound peer connections re-established after a failure."),
		BytesIn:    reg.Counter("trustnews_transport_bytes_in_total", "Frame bytes received off the wire."),
		BytesOut:   reg.Counter("trustnews_transport_bytes_out_total", "Frame bytes written to the wire."),
		FramesIn:   reg.Counter("trustnews_transport_frames_in_total", "Frames received and decoded off the wire."),

		KindBytesOut: reg.CounterVec("trustnews_transport_kind_bytes_out_total", "Frame bytes written to the wire, by message kind.", "kind"),
	}
}

// Mux routes one node's inbound messages to per-protocol handlers by kind
// prefix, so a daemon multiplexing consensus, mempool relay and blob
// retrieval on a single node id can mount each subsystem independently.
// Configure all routes before the transport starts delivering; Dispatch
// itself takes no locks.
type Mux struct {
	routes []muxRoute
}

type muxRoute struct {
	prefix string
	h      Handler
}

// NewMux returns an empty mux. Messages matching no route are dropped.
func NewMux() *Mux { return &Mux{} }

// Handle routes kinds with the given prefix (an exact kind is a prefix of
// itself) to h. Routes are matched in registration order.
func (m *Mux) Handle(prefix string, h Handler) {
	m.routes = append(m.routes, muxRoute{prefix: prefix, h: h})
}

// Dispatch implements Handler.
func (m *Mux) Dispatch(msg Message) {
	for _, r := range m.routes {
		if strings.HasPrefix(msg.Kind, r.prefix) {
			r.h(msg)
			return
		}
	}
}
