package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// startTransport builds and starts a transport on a loopback port.
func startTransport(t *testing.T, id transport.NodeID, reg *telemetry.Registry) *Transport {
	t.Helper()
	tr, err := New(Config{
		NodeID:  id,
		Listen:  "127.0.0.1:0",
		Codec:   wire.Codec{},
		Metrics: transport.NewMetrics(reg),
		DialMin: 5 * time.Millisecond,
		DialMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	if err := tr.Start(); err != nil {
		t.Fatalf("Start(%s): %v", id, err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestSendReceive delivers a consensus sync request across two real
// transports and checks it arrives decoded into the concrete type.
func TestSendReceive(t *testing.T) {
	a := startTransport(t, "a", nil)
	b := startTransport(t, "b", nil)
	a.AddPeer("b", b.Addr())

	got := make(chan transport.Message, 1)
	if err := b.AddNode("b", func(m transport.Message) { got <- m }); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := a.AddNode("a", func(transport.Message) {}); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := a.Send("a", "b", consensus.KindSyncRequest, consensus.SyncRequest{Height: 7}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-got:
		if m.From != "a" || m.To != "b" || m.Kind != consensus.KindSyncRequest {
			t.Fatalf("bad addressing: %+v", m)
		}
		req, ok := m.Payload.(consensus.SyncRequest)
		if !ok || req.Height != 7 {
			t.Fatalf("bad payload: %T %+v", m.Payload, m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
}

// TestSelfSend checks loopback delivery bypasses the wire but still runs
// on the serialized event loop.
func TestSelfSend(t *testing.T) {
	a := startTransport(t, "a", nil)
	got := make(chan transport.Message, 1)
	if err := a.AddNode("a", func(m transport.Message) { got <- m }); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := a.Send("a", "a", "k", "v"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-got:
		if m.Payload.(string) != "v" {
			t.Fatalf("bad payload: %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("self-send never arrived")
	}
}

// TestSendErrors covers the local-failure surface: unknown peers and
// backpressure must error; in-flight losses must not.
func TestSendErrors(t *testing.T) {
	a := startTransport(t, "a", nil)
	if err := a.AddNode("a", func(transport.Message) {}); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := a.Send("a", "ghost", "k", "v"); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
	if err := a.Send("b", "a", "k", "v"); err == nil {
		t.Fatal("send from non-local node succeeded")
	}
}

// TestReconnect kills the receiving transport and brings a new one up on
// the same address: the writer must re-dial with backoff and traffic must
// flow again, with the reconnect counted.
func TestReconnect(t *testing.T) {
	reg := telemetry.New()
	a := startTransport(t, "a", reg)
	if err := a.AddNode("a", func(transport.Message) {}); err != nil {
		t.Fatalf("AddNode: %v", err)
	}

	b1 := startTransport(t, "b", nil)
	addr := b1.Addr()
	a.AddPeer("b", addr)
	got := make(chan struct{}, 16)
	if err := b1.AddNode("b", func(transport.Message) { got <- struct{}{} }); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := a.Send("a", "b", consensus.KindSyncRequest, consensus.SyncRequest{Height: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("first message never arrived")
	}

	// Kill b and replace it on the same port.
	b1.Close()
	b2, err := New(Config{
		NodeID: "b", Listen: addr, Codec: wire.Codec{},
		DialMin: 5 * time.Millisecond, DialMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The port may linger in TIME_WAIT briefly; retry the bind.
	waitFor(t, 10*time.Second, "rebind", func() bool { return b2.Start() == nil })
	t.Cleanup(func() { b2.Close() })
	got2 := make(chan struct{}, 16)
	if err := b2.AddNode("b", func(transport.Message) { got2 <- struct{}{} }); err != nil {
		t.Fatalf("AddNode: %v", err)
	}

	// Keep sending until one lands over the re-established connection.
	waitFor(t, 10*time.Second, "reconnect delivery", func() bool {
		_ = a.Send("a", "b", consensus.KindSyncRequest, consensus.SyncRequest{Height: 2})
		select {
		case <-got2:
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	})
	// NewMetrics on the same registry re-binds the same counter series.
	if v := transport.NewMetrics(reg).Reconnects.Value(); v == 0 {
		t.Fatal("reconnect not counted")
	}
}

// TestPeersConnected: a peer counts once frames can flow both ways — the
// local writer has dialed it and it has dialed us — and stops counting
// when it goes away.
func TestPeersConnected(t *testing.T) {
	a := startTransport(t, "a", nil)
	b := startTransport(t, "b", nil)
	for _, tr := range []*Transport{a, b} {
		if err := tr.AddNode(tr.cfg.NodeID, func(transport.Message) {}); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
	}
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())
	if a.PeersConnected() != 0 || b.PeersConnected() != 0 {
		t.Fatalf("connected before any frame: a=%d b=%d", a.PeersConnected(), b.PeersConnected())
	}
	ping := consensus.SyncRequest{Height: 1}
	if err := a.Send("a", "b", consensus.KindSyncRequest, ping); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, 5*time.Second, "b to see a's connection", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.inbound["a"] == 1
	})
	if a.PeersConnected() != 0 || b.PeersConnected() != 0 {
		t.Fatalf("one direction counted as connected: a=%d b=%d", a.PeersConnected(), b.PeersConnected())
	}
	if err := b.Send("b", "a", consensus.KindSyncRequest, ping); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, 5*time.Second, "both directions up", func() bool {
		return a.PeersConnected() == 1 && b.PeersConnected() == 1
	})
	b.Close()
	waitFor(t, 5*time.Second, "a to drop b", func() bool { return a.PeersConnected() == 0 })
}

// dialRaw opens a raw client connection and completes the handshake.
func dialRaw(t *testing.T, tr *Transport) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if err := writeHello(c, "raw-client"); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := readHello(c); err != nil {
		t.Fatalf("hello resp: %v", err)
	}
	return c
}

// TestTornFrame feeds the reader a frame whose length prefix claims more
// bytes than ever arrive: the connection must die quietly; later
// well-formed traffic on a new connection must still flow.
func TestTornFrame(t *testing.T) {
	tr := startTransport(t, "srv", nil)
	delivered := make(chan transport.Message, 1)
	if err := tr.AddNode("srv", func(m transport.Message) { delivered <- m }); err != nil {
		t.Fatalf("AddNode: %v", err)
	}

	c := dialRaw(t, tr)
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], 1000) // claim 1000 bytes
	if _, err := c.Write(head[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.Write([]byte("only-a-few")); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.Close() // torn mid-frame

	// A fresh, well-formed connection still works.
	c2 := dialRaw(t, tr)
	raw, err := wire.Codec{}.Encode(transport.Message{
		From: "raw-client", To: "srv", Kind: consensus.KindSyncRequest,
		Payload: consensus.SyncRequest{Height: 3},
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := writeFrame(c2, raw, time.Second); err != nil {
		t.Fatalf("frame: %v", err)
	}
	select {
	case m := <-delivered:
		if m.Payload.(consensus.SyncRequest).Height != 3 {
			t.Fatalf("bad payload: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("well-formed frame not delivered after torn one")
	}
}

// TestHostileLength sends a length prefix beyond MaxFrame: the reader
// must drop the connection without allocating, and undecodable bodies
// must likewise kill the connection, not the process.
func TestHostileLength(t *testing.T) {
	tr := startTransport(t, "srv", nil)
	if err := tr.AddNode("srv", func(transport.Message) {}); err != nil {
		t.Fatalf("AddNode: %v", err)
	}

	c := dialRaw(t, tr)
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], 0xffffffff)
	if _, err := c.Write(head[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The server must close on us rather than wait for 4 GiB.
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("connection survived a hostile length prefix")
	}

	// Garbage body of a legal length: decode fails, connection dies.
	c2 := dialRaw(t, tr)
	if err := writeFrame(c2, []byte{0xde, 0xad, 0xbe, 0xef}, time.Second); err != nil {
		t.Fatalf("frame: %v", err)
	}
	_ = c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.Read(one[:]); err == nil {
		t.Fatal("connection survived an undecodable frame")
	}
}

// TestBadHandshake checks that wrong magic is rejected before framing.
func TestBadHandshake(t *testing.T) {
	tr := startTransport(t, "srv", nil)
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("connection survived a bad handshake")
	}
}

// TestConsensusOverTCP runs a real 4-validator BFT cluster over loopback
// TCP in-process: same consensus state machine as the simnet tests, real
// sockets and wire codec underneath. Transactions arrive from several
// goroutines at once while validators rest between heights (WorkArrived
// races the event loop, under -race in tier 1). It must commit all of
// them and stay in agreement.
func TestConsensusOverTCP(t *testing.T) {
	const n = 4
	transports := make([]*Transport, n)
	nodes := make([]*consensus.Node, n)
	apps := make([]*consensus.ChainApp, n)
	kps := make([]*keys.KeyPair, n)
	vals := make([]consensus.Validator, n)
	for i := 0; i < n; i++ {
		kps[i] = keys.FromSeed([]byte("tcp-val-" + strconv.Itoa(i)))
		vals[i] = consensus.Validator{
			ID:    transport.NodeID("p" + strconv.Itoa(i)),
			Addr:  kps[i].Address(),
			Pub:   kps[i].Public(),
			Power: 1,
		}
		transports[i] = startTransport(t, vals[i].ID, nil)
	}
	set, err := consensus.NewValidatorSet(vals)
	if err != nil {
		t.Fatalf("validator set: %v", err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				transports[i].AddPeer(vals[j].ID, transports[j].Addr())
			}
		}
	}
	for i := 0; i < n; i++ {
		apps[i] = &consensus.ChainApp{
			Chain:      ledger.NewMemChain(),
			Proposer:   kps[i].Address(),
			AllowEmpty: true,
		}
		apps[i].Pool = ledger.NewMempool(apps[i].Chain, 1<<12)
		nodes[i] = consensus.NewNode(vals[i].ID, kps[i], set, transports[i], apps[i], consensus.Timeouts{
			Propose: 250 * time.Millisecond, Prevote: 200 * time.Millisecond,
			Precommit: 200 * time.Millisecond, Delta: 100 * time.Millisecond,
			Idle: 500 * time.Millisecond,
		})
		if err := nodes[i].Bind(); err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		node := nodes[i]
		tr := transports[i]
		tr.After(vals[i].ID, 0, func() { node.Start() })
	}
	waitFor(t, 30*time.Second, "all nodes at height 1", func() bool {
		for i := 0; i < n; i++ {
			if apps[i].Chain.Height() < 1 {
				return false
			}
		}
		return true
	})
	// Four clients, each relaying its transactions to every validator.
	const clients, perClient = 4, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sender := keys.FromSeed([]byte("tcp-client-" + strconv.Itoa(c)))
			for k := 0; k < perClient; k++ {
				tx, err := ledger.NewTx(sender, uint64(k), "news.publish", []byte{byte(c), byte(k)})
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if err := apps[i].Pool.Add(tx); err != nil {
						t.Error(err)
						return
					}
					nodes[i].WorkArrived()
				}
			}
		}(c)
	}
	wg.Wait()
	waitFor(t, 30*time.Second, "every transaction committed on every node", func() bool {
		for i := 0; i < n; i++ {
			if apps[i].Pool.Size() != 0 || apps[i].Chain.Height() < 3 {
				return false
			}
		}
		return true
	})
	// Agreement: block ids match at every common height.
	minH := apps[0].Chain.Height()
	for i := 1; i < n; i++ {
		if h := apps[i].Chain.Height(); h < minH {
			minH = h
		}
	}
	for h := uint64(0); h < minH; h++ {
		b0, err := apps[0].BlockAt(h)
		if err != nil {
			t.Fatalf("node0 block %d: %v", h, err)
		}
		for i := 1; i < n; i++ {
			bi, err := apps[i].BlockAt(h)
			if err != nil {
				t.Fatalf("node%d block %d: %v", i, h, err)
			}
			if bi.ID() != b0.ID() {
				t.Fatalf("fork at height %d: node%d %s vs node0 %s", h, i, bi.ID().Short(), b0.ID().Short())
			}
		}
	}
	if testing.Verbose() {
		fmt.Printf("tcp consensus: %d nodes converged at height %d\n", n, minH)
	}
}

// syncReq encodes a sync request frame body for the given height.
func syncReq(t *testing.T, h uint64) []byte {
	t.Helper()
	raw, err := wire.Codec{}.Encode(transport.Message{
		From: "raw-client", To: "srv", Kind: consensus.KindSyncRequest,
		Payload: consensus.SyncRequest{Height: h},
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return raw
}

// TestFramesSharingOneSegment: two frames that arrive in one segment are
// both decoded, in order, through the reader's buffer.
func TestFramesSharingOneSegment(t *testing.T) {
	tr := startTransport(t, "srv", nil)
	delivered := make(chan transport.Message, 2)
	if err := tr.AddNode("srv", func(m transport.Message) { delivered <- m }); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	c := dialRaw(t, tr)
	if _, err := c.Write(appendFrame(appendFrame(nil, syncReq(t, 1)), syncReq(t, 2))); err != nil {
		t.Fatalf("write: %v", err)
	}
	for want := uint64(1); want <= 2; want++ {
		select {
		case m := <-delivered:
			if got := m.Payload.(consensus.SyncRequest).Height; got != want {
				t.Fatalf("frame %d carried height %d", want, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d of the segment not delivered", want)
		}
	}
}

// TestBurstArrivesInOrder: a burst queued faster than the writer drains it
// arrives whole and in order.
func TestBurstArrivesInOrder(t *testing.T) {
	reg := telemetry.New()
	a := startTransport(t, "a", reg)
	b := startTransport(t, "b", nil)
	a.AddPeer("b", b.Addr())
	const n = 500
	got := make(chan uint64, n)
	if err := b.AddNode("b", func(m transport.Message) { got <- m.Payload.(consensus.SyncRequest).Height }); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	for h := uint64(0); h < n; h++ {
		if err := a.Send("a", "b", consensus.KindSyncRequest, consensus.SyncRequest{Height: h}); err != nil {
			t.Fatalf("Send %d: %v", h, err)
		}
	}
	for want := uint64(0); want < n; want++ {
		select {
		case h := <-got:
			if h != want {
				t.Fatalf("got height %d, want %d", h, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", want)
		}
	}
	if e := transport.NewMetrics(reg).SendErrors.Value(); e != 0 {
		t.Fatalf("%d send errors on a healthy link", e)
	}
}

// TestUnreachablePeerKeepsNewestFrame: frames queued while a peer cannot
// be dialed are shed down to the newest one, each shed frame counted as a
// send error, and the newest is delivered once the peer comes up.
func TestUnreachablePeerKeepsNewestFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here until b starts

	reg := telemetry.New()
	a := startTransport(t, "a", reg)
	a.AddPeer("b", addr)
	for h := uint64(1); h <= 3; h++ {
		if err := a.Send("a", "b", consensus.KindSyncRequest, consensus.SyncRequest{Height: h}); err != nil {
			t.Fatalf("Send %d: %v", h, err)
		}
	}
	sendErrors := transport.NewMetrics(reg).SendErrors
	waitFor(t, 5*time.Second, "the older frames to be shed", func() bool { return sendErrors.Value() == 2 })

	b, err := New(Config{NodeID: "b", Listen: addr, Codec: wire.Codec{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got := make(chan uint64, 3)
	if err := b.AddNode("b", func(m transport.Message) { got <- m.Payload.(consensus.SyncRequest).Height }); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	waitFor(t, 10*time.Second, "bind", func() bool { return b.Start() == nil })
	t.Cleanup(func() { b.Close() })
	select {
	case h := <-got:
		if h != 3 {
			t.Fatalf("first frame after reconnect carried height %d, want the newest (3)", h)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("newest frame never delivered")
	}
	select {
	case h := <-got:
		t.Fatalf("shed frame %d delivered too", h)
	case <-time.After(100 * time.Millisecond):
	}
	if v := sendErrors.Value(); v != 2 {
		t.Fatalf("%d send errors, want the 2 shed frames", v)
	}
}
