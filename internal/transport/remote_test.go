package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gminer/internal/metrics"
	"gminer/internal/trace"
)

// reserveAddr grabs an ephemeral loopback port and releases it, returning
// an address nothing is listening on (yet).
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// remoteMesh brings up n fully-peered RemoteNetwork nodes on loopback: the
// shape cluster.Config.UseTCP runs a job over inside one process.
func remoteMesh(t *testing.T, n int, redial RedialPolicy) []*RemoteNetwork {
	t.Helper()
	nets := make([]*RemoteNetwork, n)
	for i := range nets {
		var err error
		nets[i], err = NewRemote(RemoteConfig{Nodes: n, Local: i, Listen: "127.0.0.1:0", Redial: redial})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nets[i].Close)
	}
	for i, a := range nets {
		for j, b := range nets {
			if i != j {
				a.SetPeer(j, b.Addr())
			}
		}
	}
	return nets
}

// Regression for the redial budget: a single bounded redial cannot bridge
// a restarting worker process. Here the peer is unreachable
// for 2s before it starts accepting; a sender with a redial budget must
// still get the connection.
func TestDialRetryWaitsForLateListener(t *testing.T) {
	addr := reserveAddr(t)
	go func() {
		time.Sleep(2 * time.Second)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		defer l.Close()
		c, err := l.Accept()
		if err == nil {
			_ = c.Close()
		}
	}()
	start := time.Now()
	c, err := dialRetry(func() string { return addr }, time.Second,
		RedialPolicy{Budget: 10 * time.Second, Base: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("dialRetry should outlast a 2s-unreachable peer: %v", err)
	}
	_ = c.Close()
	if e := time.Since(start); e < 1500*time.Millisecond {
		t.Fatalf("connected after %v; the listener only came up at 2s", e)
	}
}

func TestDialRetryBudgetExhausted(t *testing.T) {
	addr := reserveAddr(t)
	start := time.Now()
	_, err := dialRetry(func() string { return addr }, time.Second,
		RedialPolicy{Budget: 200 * time.Millisecond, Base: 20 * time.Millisecond}, nil)
	if err == nil {
		t.Fatal("dial to a dead address must fail once the budget is spent")
	}
	if e := time.Since(start); e > 3*time.Second {
		t.Fatalf("budget of 200ms took %v to give up", e)
	}
}

func TestDialRetryZeroBudgetSingleAttempt(t *testing.T) {
	addr := reserveAddr(t)
	start := time.Now()
	if _, err := dialRetry(func() string { return addr }, time.Second, RedialPolicy{}, nil); err == nil {
		t.Fatal("zero policy must fail on the first refused dial")
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("zero policy retried for %v; want a single attempt", e)
	}
}

// The same regression at the RemoteNetwork layer: frames queued to a peer
// whose process has not started yet must be delivered once it begins
// accepting 2s later, in order.
func TestRemoteDeliversAfterLateAccept(t *testing.T) {
	peerAddr := reserveAddr(t)
	a, err := NewRemote(RemoteConfig{
		Nodes: 2, Local: 0, Listen: "127.0.0.1:0",
		Redial: RedialPolicy{Budget: 10 * time.Second, Base: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetPeer(1, peerAddr)
	for i := 0; i < 3; i++ {
		if err := a.Endpoint().Send(1, 7, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	time.Sleep(2 * time.Second)
	b, err := NewRemote(RemoteConfig{Nodes: 2, Local: 1, Listen: peerAddr})
	if err != nil {
		t.Fatalf("late listener: %v", err)
	}
	defer b.Close()
	for i := 0; i < 3; i++ {
		m, ok := b.Endpoint().RecvTimeout(10 * time.Second)
		if !ok {
			t.Fatalf("frame %d never arrived after the peer came up", i)
		}
		if m.From != 0 || m.Type != 7 || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("frame %d: got from=%d type=%d payload=%v", i, m.From, m.Type, m.Payload)
		}
	}
	if d := a.Dropped(); d != 0 {
		t.Fatalf("sender dropped %d frames despite the budget", d)
	}
}

func TestRemoteBidirectionalAndSelfSend(t *testing.T) {
	a, err := NewRemote(RemoteConfig{Nodes: 2, Local: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewRemote(RemoteConfig{Nodes: 2, Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeer(1, b.Addr())
	b.SetPeer(0, a.Addr())

	if err := a.Endpoint().Send(1, 3, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	m, ok := b.Endpoint().RecvTimeout(5 * time.Second)
	if !ok || string(m.Payload) != "ping" || m.From != 0 {
		t.Fatalf("b got %+v ok=%v", m, ok)
	}
	if err := b.Endpoint().Send(0, 4, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	m, ok = a.Endpoint().RecvTimeout(5 * time.Second)
	if !ok || string(m.Payload) != "pong" || m.From != 1 {
		t.Fatalf("a got %+v ok=%v", m, ok)
	}

	// Self-send loops back through the local inbox without a socket.
	if err := a.Endpoint().Send(0, 5, []byte("self")); err != nil {
		t.Fatal(err)
	}
	m, ok = a.Endpoint().RecvTimeout(5 * time.Second)
	if !ok || string(m.Payload) != "self" || m.From != 0 {
		t.Fatalf("self-send got %+v ok=%v", m, ok)
	}
}

func TestJoinClusterHelloWelcome(t *testing.T) {
	coord, err := NewRemote(RemoteConfig{
		Nodes: 2, Local: 1, Listen: "127.0.0.1:0",
		Hello: func(payload []byte) []byte {
			return append([]byte("welcome:"), payload...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	reply, err := JoinCluster(coord.Addr(), []byte("node-a"), 2*time.Second, RedialPolicy{Budget: 5 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "welcome:node-a" {
		t.Fatalf("welcome payload %q", reply)
	}
}

// JoinCluster must keep knocking while the coordinator is still starting.
func TestJoinClusterRetriesUntilCoordinatorUp(t *testing.T) {
	addr := reserveAddr(t)
	go func() {
		time.Sleep(1 * time.Second)
		_, _ = NewRemote(RemoteConfig{
			Nodes: 2, Local: 1, Listen: addr,
			Hello: func(payload []byte) []byte { return []byte("ok") },
		})
	}()
	reply, err := JoinCluster(addr, []byte("x"), 2*time.Second,
		RedialPolicy{Budget: 10 * time.Second, Base: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("join should retry until the coordinator is up: %v", err)
	}
	if string(reply) != "ok" {
		t.Fatalf("welcome payload %q", reply)
	}
}

// A mux over a remote network has only its own node's underlying
// endpoint; the other entries are nil and must neither demux nor send.
func TestMuxNilUnderEntries(t *testing.T) {
	a, err := NewRemote(RemoteConfig{Nodes: 2, Local: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRemote(RemoteConfig{Nodes: 2, Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(1, b.Addr())
	b.SetPeer(0, a.Addr())

	muxA := NewMux([]Endpoint{a.Endpoint(), nil})
	muxB := NewMux([]Endpoint{nil, b.Endpoint()})
	epsA, err := muxA.Open(9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	epsB, err := muxB.Open(9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := epsA[0].Send(1, 2, []byte("hi")); err != nil {
		t.Fatalf("send via local node: %v", err)
	}
	m, ok := epsB[1].RecvTimeout(5 * time.Second)
	if !ok || string(m.Payload) != "hi" {
		t.Fatalf("muxed frame: %+v ok=%v", m, ok)
	}
	if err := epsA[1].Send(0, 2, nil); err == nil {
		t.Fatal("send through a nil-under virtual endpoint must error")
	}

	muxA.Close()
	muxB.Close()
	a.Close()
	b.Close()
	muxA.WaitDemux()
	muxB.WaitDemux()
}

func TestRemoteSetPeerRedirects(t *testing.T) {
	a, err := NewRemote(RemoteConfig{Nodes: 2, Local: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	first, err := NewRemote(RemoteConfig{Nodes: 2, Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(1, first.Addr())
	if err := a.Endpoint().Send(1, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if m, ok := first.Endpoint().RecvTimeout(5 * time.Second); !ok || string(m.Payload) != "one" {
		t.Fatalf("first incarnation got %+v ok=%v", m, ok)
	}
	// The first incarnation dies; a replacement comes up elsewhere.
	first.Close()
	second, err := NewRemote(RemoteConfig{Nodes: 2, Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	a.SetPeer(1, second.Addr())
	if err := a.Endpoint().Send(1, 1, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if m, ok := second.Endpoint().RecvTimeout(5 * time.Second); !ok || string(m.Payload) != "two" {
		t.Fatalf("replacement got %+v ok=%v", m, ok)
	}
}

func TestRemoteLargePayload(t *testing.T) {
	nets := remoteMesh(t, 2, RedialPolicy{})
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	_ = nets[0].Endpoint().Send(1, 1, payload)
	m, ok := nets[1].Endpoint().RecvTimeout(5 * time.Second)
	if !ok || len(m.Payload) != len(payload) {
		t.Fatalf("len=%d ok=%v", len(m.Payload), ok)
	}
	for i := range payload {
		if m.Payload[i] != payload[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

// TestRemoteConcurrentCloseVsSend hammers Send from many goroutines while
// Close races in: no panic, no send blocks on the dying network, and every
// transport goroutine (accept/read loops, per-peer senders) exits.
func TestRemoteConcurrentCloseVsSend(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		nets := remoteMesh(t, 4, RedialPolicy{})
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for src := range nets {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				ep := nets[src].Endpoint()
				payload := make([]byte, 512)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = ep.Send((src+1+i)%4, 7, payload)
				}
			}(src)
		}
		// Let traffic build, then yank the network out from under the senders.
		time.Sleep(5 * time.Millisecond)
		for _, n := range nets {
			n.Close()
		}
		close(stop)
		wg.Wait()
	}
	// Loops unwind asynchronously after Close; give them a bounded settle
	// window before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after close\n%s",
				before, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRemoteDoubleCloseAndEndpointClose(t *testing.T) {
	nets := remoteMesh(t, 2, RedialPolicy{})
	_ = nets[0].Endpoint().Send(1, 1, []byte("x"))
	nets[0].Close()
	nets[0].Close() // idempotent
	if err := nets[0].Endpoint().Close(); err != nil {
		t.Fatalf("endpoint close after network close: %v", err)
	}
	if err := nets[0].Endpoint().Send(1, 1, []byte("late")); err != nil {
		t.Fatalf("send after close must drop, not fail: %v", err)
	}
	if _, ok := nets[0].Endpoint().RecvTimeout(50 * time.Millisecond); ok {
		t.Fatal("closed network still delivering")
	}
	nets[1].Close()
	if _, ok := nets[1].Endpoint().RecvTimeout(50 * time.Millisecond); ok {
		t.Fatal("mailbox still delivering after close")
	}
}

// TestRemoteReconnectAfterConnDrop kills the cached outbound connection
// between two sends; the sender's one retry on a fresh dial must deliver
// the second frame.
func TestRemoteReconnectAfterConnDrop(t *testing.T) {
	nets := remoteMesh(t, 2, RedialPolicy{})
	_ = nets[0].Endpoint().Send(1, 1, []byte("before"))
	if m, ok := nets[1].Endpoint().RecvTimeout(5 * time.Second); !ok || string(m.Payload) != "before" {
		t.Fatalf("got %+v ok=%v", m, ok)
	}
	// Sever the cached connection out from under the sender (a peer-side
	// disconnect the sender has not noticed yet).
	p := nets[0].peers[1]
	p.mu.Lock()
	_ = p.conn.Close()
	p.mu.Unlock()
	_ = nets[0].Endpoint().Send(1, 2, []byte("after"))
	if m, ok := nets[1].Endpoint().RecvTimeout(5 * time.Second); !ok || string(m.Payload) != "after" {
		t.Fatalf("send after conn drop: got %+v ok=%v", m, ok)
	}
	if d := nets[0].Dropped(); d != 0 {
		t.Fatalf("dropped %d frames across a reconnect", d)
	}
}

// TestRemotePeerGoneDropsAndCounts: a peer that was up and then went away
// for good. Sends never block or error (the Endpoint contract); once the
// redial budget is spent the frames are dropped and counted.
func TestRemotePeerGoneDropsAndCounts(t *testing.T) {
	nets := remoteMesh(t, 2, RedialPolicy{Budget: 100 * time.Millisecond, Base: 20 * time.Millisecond})
	_ = nets[0].Endpoint().Send(1, 1, []byte("hello"))
	if _, ok := nets[1].Endpoint().RecvTimeout(5 * time.Second); !ok {
		t.Fatal("peer never received while up")
	}
	nets[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for nets[0].Dropped() == 0 {
		// The first write after the peer died can still land in a socket
		// buffer; keep sending until one fails over to the dead listener.
		start := time.Now()
		if err := nets[0].Endpoint().Send(1, 1, []byte("gone")); err != nil {
			t.Fatalf("send to a gone peer errored: %v", err)
		}
		if time.Since(start) > time.Second {
			t.Fatal("send to a gone peer blocked")
		}
		if time.Now().After(deadline) {
			t.Fatal("frames to a gone peer were never dropped and counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Byte accounting and EvNetSend tracing live in the mux, so they hold on
// the TCP stack exactly as on the in-process one.
func TestMuxOverRemoteAccountsAndTraces(t *testing.T) {
	nets := remoteMesh(t, 2, RedialPolicy{})
	mux := NewMux([]Endpoint{nets[0].Endpoint(), nets[1].Endpoint()})
	defer func() {
		mux.Close()
		nets[0].Close()
		nets[1].Close()
		mux.WaitDemux()
	}()
	cs := []*metrics.Counters{{}, {}}
	tr := trace.New(2, 16).EnableEvents()
	eps, err := mux.Open(1, cs, tr)
	if err != nil {
		t.Fatal(err)
	}
	_ = eps[0].Send(1, 1, make([]byte, 256))
	if m, ok := eps[1].RecvTimeout(5 * time.Second); !ok || len(m.Payload) != 256 || m.From != 0 {
		t.Fatalf("got %+v ok=%v", m, ok)
	}
	if got := cs[0].Snapshot().NetBytes; got != 256+16 {
		t.Fatalf("sender charged %d bytes", got)
	}
	if cs[1].Snapshot().NetBytes != 0 {
		t.Fatal("receiver charged for send")
	}
	if got := tr.EventCount(trace.EvNetSend); got != 1 {
		t.Fatalf("net_send events = %d, want 1", got)
	}
}

func TestRemoteDropsAfterBudget(t *testing.T) {
	dead := reserveAddr(t)
	a, err := NewRemote(RemoteConfig{
		Nodes: 2, Local: 0, Listen: "127.0.0.1:0",
		Redial: RedialPolicy{Budget: 100 * time.Millisecond, Base: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetPeer(1, dead)
	if err := a.Endpoint().Send(1, 1, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame to a dead peer was never dropped after the budget")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func ExampleRemoteNetwork() {
	coord, _ := NewRemote(RemoteConfig{Nodes: 2, Local: 1, Listen: "127.0.0.1:0"})
	worker, _ := NewRemote(RemoteConfig{Nodes: 2, Local: 0, Listen: "127.0.0.1:0"})
	coord.SetPeer(0, worker.Addr())
	worker.SetPeer(1, coord.Addr())
	_ = worker.Endpoint().Send(1, 9, []byte("report"))
	m, _ := coord.Endpoint().RecvTimeout(5 * time.Second)
	fmt.Printf("%d -> %d: %s\n", m.From, m.To, m.Payload)
	worker.Close()
	coord.Close()
	// Output: 0 -> 1: report
}
