// Package tcp implements transport.Network over real sockets — the
// production substrate cmd/trustnewsd cluster mode and the internal/e2e
// multi-process harness run on, carrying the same protocol stack the
// simulated network drives in virtual time.
//
// Topology: each Transport hosts exactly one local node. For every peer
// it maintains one outbound connection (dialed lazily, re-dialed with
// exponential backoff after failures) used only for sending; inbound
// traffic arrives on connections peers dial to the local listener. Every
// connection begins with a handshake — magic, transport version, node id
// — so a dialer discovers misconfigured addresses immediately instead of
// feeding frames to a stranger.
//
// Framing: a 4-byte big-endian length prefix followed by the frame body,
// produced by the pluggable Codec (internal/transport/wire in
// production). The length is validated against transport.MaxFrame before
// any allocation; oversized claims, torn frames and undecodable bodies kill
// the connection, never the process. A frame's header and body go out
// in one write, and a reader reads through a buffer, so a burst of votes
// costs one syscall per frame to send and far fewer to receive.
//
// Delivery semantics match the simulator's lossy contract: Send returns
// nil once a frame is queued for the peer; a connection failure afterward
// drops queued frames exactly like packets lost in flight (counted in
// the transport metrics, surfaced to the protocol only as timeouts).
// Handlers and After callbacks run serialized on one event-loop
// goroutine, preserving the no-locks contract protocol state machines
// rely on.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/transport"
)

// Codec turns messages into frame bodies and back. internal/transport/wire
// provides the production implementation; tests may substitute their own.
type Codec interface {
	Encode(m transport.Message) ([]byte, error)
	Decode(raw []byte) (transport.Message, error)
}

// handshakeVersion is the transport protocol version exchanged ahead of
// the first frame.
const handshakeVersion = 1

// handshakeMagic opens every connection in either direction.
var handshakeMagic = [3]byte{'T', 'N', 'W'}

// Config configures a Transport.
type Config struct {
	// NodeID is the local node's identity, announced in every handshake.
	NodeID transport.NodeID
	// Listen is the local listen address (host:port; ":0" picks a port,
	// exposed via Addr after Start).
	Listen string
	// Peers maps remote node ids to their dial addresses. More can be
	// added later with AddPeer.
	Peers map[transport.NodeID]string
	// Codec frames and unframes messages (required).
	Codec Codec
	// Metrics receives transport counters (zero value disables).
	Metrics transport.Metrics

	// QueueSize bounds each peer's outbound frame queue (default 1024);
	// a full queue makes Send fail with backpressure.
	QueueSize int
	// DialMin/DialMax bound the reconnect backoff (defaults 50ms/2s).
	DialMin time.Duration
	DialMax time.Duration
	// WriteTimeout is the per-frame write deadline (default 5s).
	WriteTimeout time.Duration
	// IdleTimeout closes inbound connections with no traffic (default 2m).
	IdleTimeout time.Duration
}

// Errors returned by this package.
var (
	ErrUnknownPeer  = errors.New("tcp: unknown peer")
	ErrBackpressure = errors.New("tcp: peer queue full")
	ErrClosed       = errors.New("tcp: transport closed")
	ErrNotLocal     = errors.New("tcp: not the local node")
	ErrHandshake    = errors.New("tcp: handshake failed")
)

// Transport is a transport.Network hosting one local node over TCP.
type Transport struct {
	cfg   Config
	start time.Time

	ln net.Listener

	mu      sync.Mutex
	handler transport.Handler
	peers   map[transport.NodeID]*peer
	conns   map[net.Conn]struct{}
	// inbound counts the live, handshaken inbound connections per remote
	// node id (a re-dialing peer can briefly hold two).
	inbound map[transport.NodeID]int
	closed  bool

	// Event loop: handlers and timers post closures here; loop runs them
	// serialized. The queue is unbounded so a handler sending to itself
	// (or a timer firing mid-dispatch) can never deadlock the loop.
	loopMu   sync.Mutex
	loopQ    []func()
	wake     chan struct{}
	done     chan struct{}
	loopWG   sync.WaitGroup
	writerWG sync.WaitGroup
}

var _ transport.Network = (*Transport)(nil)

// peer is one remote node's outbound path.
type peer struct {
	id   transport.NodeID
	addr string
	q    chan frame
	// up reports a live, handshaken outbound connection (guarded by the
	// transport's mu).
	up bool
}

// frame is one encoded message waiting for a peer's writer; the kind
// labels its bytes in the per-kind counter once they are on the wire.
type frame struct {
	kind string
	raw  []byte
}

// New creates a transport; call AddNode to install the local handler,
// then Start to begin listening and dialing.
func New(cfg Config) (*Transport, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("tcp: NodeID required")
	}
	if cfg.Codec == nil {
		return nil, fmt.Errorf("tcp: Codec required")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.DialMin <= 0 {
		cfg.DialMin = 50 * time.Millisecond
	}
	if cfg.DialMax <= 0 {
		cfg.DialMax = 2 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	t := &Transport{
		cfg:     cfg,
		start:   time.Now(),
		peers:   make(map[transport.NodeID]*peer),
		conns:   make(map[net.Conn]struct{}),
		inbound: make(map[transport.NodeID]int),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		if id == cfg.NodeID {
			continue
		}
		t.peers[id] = &peer{id: id, addr: addr, q: make(chan frame, cfg.QueueSize)}
	}
	return t, nil
}

// Start binds the listener and launches the event loop and per-peer
// writers. The transport is fully operational when it returns.
func (t *Transport) Start() error {
	ln, err := net.Listen("tcp", t.cfg.Listen)
	if err != nil {
		return fmt.Errorf("tcp: listen %s: %w", t.cfg.Listen, err)
	}
	t.ln = ln
	t.loopWG.Add(1)
	go t.runLoop()
	go t.acceptLoop()
	t.mu.Lock()
	for _, p := range t.peers {
		t.startWriter(p)
	}
	t.mu.Unlock()
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *Transport) Addr() string {
	if t.ln == nil {
		return t.cfg.Listen
	}
	return t.ln.Addr().String()
}

// AddPeer registers (or re-addresses) a remote peer after construction.
func (t *Transport) AddPeer(id transport.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || id == t.cfg.NodeID {
		return
	}
	if p, ok := t.peers[id]; ok {
		p.addr = addr
		return
	}
	p := &peer{id: id, addr: addr, q: make(chan frame, t.cfg.QueueSize)}
	t.peers[id] = p
	if t.ln != nil { // already started
		t.startWriter(p)
	}
}

// PeersConnected counts the configured peers this node is linked with in
// both directions: its outbound connection to the peer is up and the peer
// has an inbound connection here. Outbound connections are dialed on the
// first frame, so a node that has had nothing to say to a peer does not
// count it yet; a validator under consensus talks to every peer at once.
func (t *Transport) PeersConnected() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, p := range t.peers {
		if p.up && t.inbound[id] > 0 {
			n++
		}
	}
	return n
}

// setUp records whether peer p's outbound connection is live.
func (t *Transport) setUp(p *peer, up bool) {
	t.mu.Lock()
	p.up = up
	t.mu.Unlock()
}

// AddNode implements transport.Network. A TCP transport hosts exactly
// one node: the configured local identity.
func (t *Transport) AddNode(id transport.NodeID, h transport.Handler) error {
	if id != t.cfg.NodeID {
		return fmt.Errorf("%w: %s (local %s)", ErrNotLocal, id, t.cfg.NodeID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handler != nil {
		return fmt.Errorf("tcp: node %s already registered", id)
	}
	t.handler = h
	return nil
}

// SetHandler implements transport.Network (the restart path).
func (t *Transport) SetHandler(id transport.NodeID, h transport.Handler) error {
	if id != t.cfg.NodeID {
		return fmt.Errorf("%w: %s (local %s)", ErrNotLocal, id, t.cfg.NodeID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
	return nil
}

// Send implements transport.Network: encode on the caller's goroutine,
// enqueue on the peer's outbound queue. A nil return means "accepted for
// delivery" — the lossy-network contract; frames dropped later by a dead
// connection surface only in the metrics and as protocol timeouts.
func (t *Transport) Send(from, to transport.NodeID, kind string, payload any) error {
	if from != t.cfg.NodeID {
		return fmt.Errorf("%w: send from %s (local %s)", ErrNotLocal, from, t.cfg.NodeID)
	}
	m := transport.Message{From: from, To: to, Kind: kind, Payload: payload, Sent: t.Now()}
	if to == t.cfg.NodeID {
		// Self-delivery loops back through the event loop without the
		// codec, exactly like the simulator's zero-copy delivery.
		t.post(func() { t.dispatch(m) })
		return nil
	}
	t.mu.Lock()
	p, ok := t.peers[to]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	raw, err := t.cfg.Codec.Encode(m)
	if err != nil {
		return fmt.Errorf("tcp: encode %s: %w", kind, err)
	}
	if len(raw) > transport.MaxFrame {
		return fmt.Errorf("tcp: frame %d bytes exceeds transport.MaxFrame", len(raw))
	}
	select {
	case p.q <- frame{kind: kind, raw: raw}:
		return nil
	default:
		return fmt.Errorf("%w: %s (%d frames)", ErrBackpressure, to, cap(p.q))
	}
}

// After implements transport.Network: fn runs on the event loop after d.
func (t *Transport) After(node transport.NodeID, d time.Duration, fn func()) {
	if node != t.cfg.NodeID {
		return
	}
	time.AfterFunc(d, func() { t.post(fn) })
}

// Now implements transport.Network: monotonic time since Start.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// Close shuts the transport down: the listener stops, every connection
// closes, writers and the loop exit. Outstanding queued frames are
// dropped (network loss semantics).
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	close(t.done)
	if t.ln != nil {
		_ = t.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.writerWG.Wait()
	t.loopWG.Wait()
	return nil
}

// post enqueues fn on the serialized event loop.
func (t *Transport) post(fn func()) {
	t.loopMu.Lock()
	t.loopQ = append(t.loopQ, fn)
	t.loopMu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

func (t *Transport) runLoop() {
	defer t.loopWG.Done()
	for {
		select {
		case <-t.done:
			return
		case <-t.wake:
		}
		for {
			t.loopMu.Lock()
			q := t.loopQ
			t.loopQ = nil
			t.loopMu.Unlock()
			if len(q) == 0 {
				break
			}
			for _, fn := range q {
				select {
				case <-t.done:
					return
				default:
				}
				fn()
			}
		}
	}
}

// dispatch runs the handler for one inbound message (loop goroutine only).
func (t *Transport) dispatch(m transport.Message) {
	t.mu.Lock()
	h := t.handler
	t.mu.Unlock()
	if h != nil {
		h(m)
	}
}

// startWriter launches peer p's writer goroutine (t.mu held).
func (t *Transport) startWriter(p *peer) {
	t.writerWG.Add(1)
	go t.runWriter(p)
}

// runWriter owns peer p's outbound connection: dial with exponential
// backoff, handshake, then drain the queue writing frames. Any error
// tears the connection down and restarts the cycle; the frame being
// written is dropped and counted, like a packet lost in flight.
func (t *Transport) runWriter(p *peer) {
	defer t.writerWG.Done()
	backoff := t.cfg.DialMin
	var conn net.Conn
	connected := false
	defer func() {
		if conn != nil {
			_ = conn.Close()
			t.setUp(p, false)
		}
	}()
	for {
		var f frame
		select {
		case <-t.done:
			return
		case f = <-p.q:
		}
		for conn == nil {
			t.mu.Lock()
			addr := p.addr
			t.mu.Unlock()
			c, err := net.DialTimeout("tcp", addr, t.cfg.WriteTimeout)
			if err == nil {
				err = t.handshake(c, p.id)
			}
			if err == nil {
				conn = c
				t.setUp(p, true)
				if connected {
					t.cfg.Metrics.Reconnects.Inc()
				}
				connected = true
				backoff = t.cfg.DialMin
				break
			}
			if c != nil {
				_ = c.Close()
			}
			select {
			case <-t.done:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > t.cfg.DialMax {
				backoff = t.cfg.DialMax
			}
			// While unreachable, shed all but the newest frame so the
			// queue holds recent traffic when the peer returns. Each
			// superseded frame is a loss, counted like a failed send.
			for {
				var next frame
				select {
				case next = <-p.q:
				default:
				}
				if next.raw == nil {
					break
				}
				t.cfg.Metrics.SendErrors.Inc()
				f = next
			}
		}
		if err := writeFrame(conn, f.raw, t.cfg.WriteTimeout); err != nil {
			t.cfg.Metrics.SendErrors.Inc()
			_ = conn.Close()
			conn = nil
			t.setUp(p, false)
			continue
		}
		t.cfg.Metrics.BytesOut.Add(uint64(4 + len(f.raw)))
		t.cfg.Metrics.KindBytesOut.With(f.kind).Add(uint64(4 + len(f.raw)))
	}
}

// handshake runs the client side: announce ourselves, verify the
// responder is the peer we meant to dial.
func (t *Transport) handshake(c net.Conn, want transport.NodeID) error {
	deadline := time.Now().Add(t.cfg.WriteTimeout)
	_ = c.SetDeadline(deadline)
	defer c.SetDeadline(time.Time{})
	if err := writeHello(c, t.cfg.NodeID); err != nil {
		return err
	}
	got, err := readHello(c)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%w: dialed %s, got %s", ErrHandshake, want, got)
	}
	return nil
}

// acceptLoop admits inbound connections and spawns a reader per conn.
func (t *Transport) acceptLoop() {
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		go t.runReader(c)
	}
}

// runReader owns one inbound connection: respond to the handshake, then
// read frames until error or close. Oversized length claims, torn
// frames and undecodable bodies end the connection — the sender will
// re-dial and re-handshake.
func (t *Transport) runReader(c net.Conn) {
	r := bufio.NewReaderSize(c, readBufferSize)
	var from transport.NodeID // non-empty once the peer's hello is read and c counted in t.inbound
	defer func() {
		_ = c.Close()
		t.mu.Lock()
		delete(t.conns, c)
		if from != "" {
			if t.inbound[from]--; t.inbound[from] == 0 {
				delete(t.inbound, from)
			}
		}
		t.mu.Unlock()
	}()
	_ = c.SetDeadline(time.Now().Add(t.cfg.WriteTimeout))
	from, err := readHello(r) // "" on error
	if err != nil {
		return
	}
	t.mu.Lock()
	t.inbound[from]++
	t.mu.Unlock()
	if err := writeHello(c, t.cfg.NodeID); err != nil {
		return
	}
	for {
		_ = c.SetDeadline(time.Now().Add(t.cfg.IdleTimeout))
		raw, err := readFrame(r)
		if err != nil {
			return
		}
		t.cfg.Metrics.BytesIn.Add(uint64(4 + len(raw)))
		m, err := t.cfg.Codec.Decode(raw)
		if err != nil {
			return // a corrupt or hostile stream: kill the connection
		}
		t.cfg.Metrics.FramesIn.Inc()
		t.post(func() { t.dispatch(m) })
	}
}

// readBufferSize is the read buffer of one inbound connection: a burst of
// votes and commits fits, and a larger frame is read straight into its
// own allocation.
const readBufferSize = 32 << 10

// writeHello sends magic, version and the local node id.
func writeHello(c net.Conn, id transport.NodeID) error {
	if len(id) > 255 {
		return fmt.Errorf("%w: node id too long", ErrHandshake)
	}
	buf := make([]byte, 0, 5+len(id))
	buf = append(buf, handshakeMagic[:]...)
	buf = append(buf, handshakeVersion, byte(len(id)))
	buf = append(buf, id...)
	_, err := c.Write(buf)
	return err
}

// readHello consumes and validates a hello, returning the remote id.
func readHello(c io.Reader) (transport.NodeID, error) {
	var head [5]byte
	if _, err := io.ReadFull(c, head[:]); err != nil {
		return "", fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if head[0] != handshakeMagic[0] || head[1] != handshakeMagic[1] || head[2] != handshakeMagic[2] {
		return "", fmt.Errorf("%w: bad magic", ErrHandshake)
	}
	if head[3] != handshakeVersion {
		return "", fmt.Errorf("%w: version %d", ErrHandshake, head[3])
	}
	n := int(head[4])
	if n == 0 {
		return "", fmt.Errorf("%w: empty node id", ErrHandshake)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(c, id); err != nil {
		return "", fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return transport.NodeID(id), nil
}

// appendFrame appends raw to buf as one length-prefixed frame.
func appendFrame(buf, raw []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(raw)))
	return append(buf, raw...)
}

// writeFrame writes one length-prefixed frame under a deadline, header
// and body from one buffer in one write.
func writeFrame(c net.Conn, raw []byte, timeout time.Duration) error {
	_ = c.SetWriteDeadline(time.Now().Add(timeout))
	_, err := c.Write(appendFrame(make([]byte, 0, 4+len(raw)), raw))
	return err
}

// readFrame reads one length-prefixed frame, validating the length claim
// against transport.MaxFrame before allocating.
func readFrame(c io.Reader) ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(c, head[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(head[:])
	if n > transport.MaxFrame {
		return nil, fmt.Errorf("tcp: frame length claim %d exceeds transport.MaxFrame", n)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(c, raw); err != nil {
		return nil, err
	}
	return raw, nil
}
