package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport-reserved frame types used during connection setup of a
// RemoteNetwork. Cluster protocol message types must stay below these.
const (
	// FrameHello carries a join request from a worker process to the
	// coordinator's RemoteConfig.Hello handler.
	FrameHello uint8 = 0xFF
	// FrameWelcome carries the handler's reply back on the same
	// connection.
	FrameWelcome uint8 = 0xFE
)

// helloReplyLimit bounds a welcome frame read by JoinCluster.
const helloReplyLimit = 1 << 20

const (
	// dialTimeout bounds one dial attempt.
	dialTimeout = 5 * time.Second
	// sendTimeout is the write deadline of one frame.
	sendTimeout = 5 * time.Second
	// closeFlushBytes bounds what Close still writes to each connected peer:
	// the frames queued when it began, until this many bytes have gone (the
	// last frame whole). A flooded queue must not hold Close for as long as
	// it takes to drain.
	closeFlushBytes = 4 << 20
)

// RemoteConfig configures one process's node in a multi-process cluster.
type RemoteConfig struct {
	Nodes     int    // total nodes (workers + coordinator)
	Local     int    // this process's node index; -1 until SetLocal (a joining worker)
	Listen    string // TCP listen address, e.g. "127.0.0.1:0"
	Advertise string // address peers should dial; defaults to the bound listen address

	// Hello, when set, answers FrameHello payloads received on accepted
	// connections (the coordinator's join handshake); the reply is written
	// back as a FrameWelcome on the same connection. Nil drops hellos.
	Hello func(payload []byte) []byte

	// OnFenced, when set, is invoked (from the read loop) for every inbound
	// frame refused because its generation is below the sender's fencing
	// floor (FencePeer). Keep it fast.
	OnFenced func(from int, typ uint8, gen, min uint32)

	// redial is the senders' dial retry budget; zero is 10 s, since a peer
	// process restart takes seconds. Only this package's tests shape it.
	redial RedialPolicy
}

// RemoteNetwork is the TCP transport: it hosts exactly ONE node (one
// listener, one inbox) and reaches the others through a peer address table
// (SetPeer) over a length-prefixed frame protocol:
//
//	[4B big-endian frame length][1B type][4B from][4B generation][payload]
//
// The generation field is the sender's fencing token: a cluster
// coordinator assigns each admitted process a monotonically increasing
// slot generation, the process stamps it on every outbound frame
// (SetGeneration), and every receiver refuses frames from a node whose
// generation fell below the fencing floor installed by FencePeer — so a
// network-partitioned zombie process cannot ack, pull or push anything
// once its replacement has been admitted. Generation 0 (the default) is
// unfenced: single-process loopback meshes and handshake frames carry it.
//
// Sends are asynchronous: each peer has an unbounded outbound queue
// drained by its own sender goroutine, so Send never blocks the caller on
// a slow or restarting peer (the Endpoint contract). The sender dials
// lazily with the configured redial budget and backoff; a frame whose
// peer stays unreachable past the budget is dropped and counted — the
// same at-most-once semantics the cluster protocol already tolerates from
// chaos tests (the data stream re-sends, progress reports repeat).
type RemoteNetwork struct {
	cfg   RemoteConfig
	ln    net.Listener
	box   *mailbox
	local atomic.Int32

	stop     chan struct{}
	stopOnce sync.Once

	gen    atomic.Uint32   // fencing token stamped on outbound frames
	floor  []atomic.Uint32 // per-sender minimum accepted generation
	fenced atomic.Int64    // inbound frames refused as fenced

	mu       sync.Mutex
	peers    []*remotePeer
	accepted map[net.Conn]struct{}
	closed   bool
	dropped  atomic.Int64
}

// NewRemote binds the listener and starts the accept loop and per-peer
// senders. cfg.Local may be -1 for a worker that learns its node index
// from the join handshake (SetLocal).
func NewRemote(cfg RemoteConfig) (*RemoteNetwork, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("transport: remote network needs nodes > 0")
	}
	if cfg.redial == (RedialPolicy{}) {
		cfg.redial = RedialPolicy{Budget: 10 * time.Second}
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	if cfg.Advertise == "" {
		cfg.Advertise = ln.Addr().String()
	}
	n := &RemoteNetwork{
		cfg:      cfg,
		ln:       ln,
		box:      newMailbox(),
		stop:     make(chan struct{}),
		floor:    make([]atomic.Uint32, cfg.Nodes),
		peers:    make([]*remotePeer, cfg.Nodes),
		accepted: make(map[net.Conn]struct{}),
	}
	n.local.Store(int32(cfg.Local))
	for i := range n.peers {
		p := &remotePeer{n: n, node: i, done: make(chan struct{})}
		p.cond = sync.NewCond(&p.mu)
		n.peers[i] = p
		go p.run()
	}
	go n.acceptLoop()
	return n, nil
}

// Addr returns the address peers should dial to reach this process.
func (n *RemoteNetwork) Addr() string { return n.cfg.Advertise }

// LocalNode returns this process's node index (-1 before SetLocal).
func (n *RemoteNetwork) LocalNode() int { return int(n.local.Load()) }

// SetLocal records this process's node index once the join handshake has
// assigned it.
func (n *RemoteNetwork) SetLocal(node int) { n.local.Store(int32(node)) }

// SetGeneration installs the fencing token this process stamps on every
// outbound frame — the slot generation the coordinator assigned at
// admission. 0 (the default) means unfenced.
func (n *RemoteNetwork) SetGeneration(gen uint32) { n.gen.Store(gen) }

// FencePeer raises the fencing floor for frames claiming to come from
// node: anything stamped with a generation below min is dropped by the
// read loop (counted by Fenced, reported through OnFenced). The floor is
// monotonic — a lower min than the current floor is ignored, so a
// reordered topology update can never un-fence a zombie.
func (n *RemoteNetwork) FencePeer(node int, min uint32) {
	if node < 0 || node >= n.cfg.Nodes {
		return
	}
	for {
		cur := n.floor[node].Load()
		if min <= cur || n.floor[node].CompareAndSwap(cur, min) {
			return
		}
	}
}

// Fenced returns how many inbound frames were refused for carrying a
// fenced-out generation.
func (n *RemoteNetwork) Fenced() int64 { return n.fenced.Load() }

// SetPeer installs (or replaces) the dial address for a peer node. A
// change severs any cached connection so the sender redials the new
// address — how a replacement worker process takes over a node slot.
// Re-announcing an unchanged address is a no-op and keeps the connection.
func (n *RemoteNetwork) SetPeer(node int, addr string) {
	if node < 0 || node >= n.cfg.Nodes {
		return
	}
	p := n.peers[node]
	p.mu.Lock()
	if p.addr == addr {
		p.mu.Unlock()
		return
	}
	p.addr = addr
	old := p.conn
	p.conn = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
}

// Dropped returns how many outbound frames were abandoned because their
// peer stayed unreachable past the redial budget.
func (n *RemoteNetwork) Dropped() int64 { return n.dropped.Load() }

// Endpoint returns this process's node endpoint.
func (n *RemoteNetwork) Endpoint() Endpoint { return &remoteEndpoint{n: n} }

// Close shuts the network down. Frames queued before it still go out to
// every peer whose connection is up — the first closeFlushBytes of each
// queue, each write bounded by the per-frame deadline; the rest, and the
// queue of a peer not connected or whose write fails, are dropped (counted
// in Dropped), and no dial outlives Close. Then the listener, all
// connections and the inbox close.
func (n *RemoteNetwork) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	for _, p := range n.peers {
		p.stopQueue()
	}
	for _, p := range n.peers {
		p.close()
	}
	n.mu.Lock()
	accepted := n.accepted
	n.accepted = make(map[net.Conn]struct{})
	n.mu.Unlock()
	_ = n.ln.Close()
	for c := range accepted {
		_ = c.Close()
	}
	n.box.close()
}

func (n *RemoteNetwork) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.accepted[conn] = struct{}{}
		n.mu.Unlock()
		go n.readLoop(conn)
	}
}

func (n *RemoteNetwork) readLoop(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		frameLen := binary.BigEndian.Uint32(hdr[:])
		if frameLen < frameHeader || frameLen > 1<<30 {
			return
		}
		frame := make([]byte, frameLen)
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		typ := frame[0]
		from := int(int32(binary.BigEndian.Uint32(frame[1:5])))
		gen := binary.BigEndian.Uint32(frame[5:9])
		switch typ {
		case FrameHello:
			h := n.cfg.Hello
			if h == nil {
				n.dropped.Add(1)
				continue
			}
			reply := buildFrame(FrameWelcome, n.LocalNode(), 0, h(frame[frameHeader:]))
			_ = conn.SetWriteDeadline(time.Now().Add(sendTimeout))
			if _, err := conn.Write(reply); err != nil {
				return
			}
			_ = conn.SetWriteDeadline(time.Time{})
		case FrameWelcome:
			// Only meaningful as a reply on a joiner's own dial-out
			// connection (JoinCluster); stray ones are dropped.
			n.dropped.Add(1)
		default:
			if from >= 0 && from < n.cfg.Nodes {
				if min := n.floor[from].Load(); gen < min {
					// A frame from a fenced-out generation: the sender was
					// replaced after this frame was stamped. Refuse it — a
					// zombie must not ack, pull or deliver anything.
					n.fenced.Add(1)
					if f := n.cfg.OnFenced; f != nil {
						f(from, typ, gen, min)
					}
					continue
				}
			}
			n.box.push(Message{From: from, To: n.LocalNode(), Type: typ, Payload: frame[frameHeader:]}, time.Time{})
		}
	}
}

func (n *RemoteNetwork) send(to int, typ uint8, payload []byte) error {
	if to < 0 || to >= n.cfg.Nodes {
		return fmt.Errorf("transport: invalid destination node %d", to)
	}
	local := n.LocalNode()
	if to == local {
		n.box.push(Message{From: local, To: local, Type: typ, Payload: payload}, time.Time{})
		return nil
	}
	n.peers[to].enqueue(buildFrame(typ, local, n.gen.Load(), payload))
	return nil
}

// frameHeader is the byte count of [type][from][generation] inside a
// frame (the length prefix is not counted by the frame length either).
const frameHeader = 9

// buildFrame encodes one wire frame: length prefix, type, sender node,
// sender generation, payload.
func buildFrame(typ uint8, from int, gen uint32, payload []byte) []byte {
	frame := make([]byte, 4+frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(frameHeader+len(payload)))
	frame[4] = typ
	binary.BigEndian.PutUint32(frame[5:9], uint32(int32(from)))
	binary.BigEndian.PutUint32(frame[9:13], gen)
	copy(frame[13:], payload)
	return frame
}

// remotePeer owns the outbound path to one node: an unbounded frame queue
// and a sender goroutine that dials lazily within the redial budget.
type remotePeer struct {
	n    *RemoteNetwork
	node int

	mu     sync.Mutex
	cond   *sync.Cond
	addr   string
	queue  [][]byte
	conn   net.Conn // dialed by the sender; severed by SetPeer/close
	closed bool     // takes no more frames; the sender flushes the queue and exits
	flush  int      // bytes the sender may still write once closed
	done   chan struct{}
}

func (p *remotePeer) enqueue(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.queue = append(p.queue, frame)
	p.cond.Broadcast()
}

// stopQueue takes no more frames: the sender flushes what the queue holds,
// up to closeFlushBytes, and exits.
func (p *remotePeer) stopQueue() {
	p.mu.Lock()
	p.closed, p.flush = true, closeFlushBytes
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close waits for the sender to exit and severs the connection.
func (p *remotePeer) close() {
	<-p.done
	p.mu.Lock()
	old := p.conn
	p.conn = nil
	p.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
}

func (p *remotePeer) run() {
	defer close(p.done)
	for {
		frame, ok := p.next()
		if !ok {
			return
		}
		if !p.deliver(frame) {
			p.n.dropped.Add(1)
		}
	}
}

// next blocks until a frame is queued and the peer's address is known, or
// the peer closes with nothing left it can send.
func (p *remotePeer) next() ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.queue) > 0 && p.addr != "" && (!p.closed || p.flush > 0) {
			f := p.queue[0]
			p.queue = p.queue[1:]
			p.flush -= len(f)
			return f, true
		}
		if p.closed {
			p.n.dropped.Add(int64(len(p.queue)))
			p.queue = nil
			return nil, false
		}
		p.cond.Wait()
	}
}

// deliver writes the frame, dialing within the redial budget as needed.
// A cached connection may have died since the last write (peer restart,
// timed-out write), so a failed write gets exactly one retry on a fresh
// connection before the frame is given up.
func (p *remotePeer) deliver(frame []byte) bool {
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := p.ensureConn()
		if err != nil {
			return false
		}
		_ = conn.SetWriteDeadline(time.Now().Add(sendTimeout))
		if _, err := conn.Write(frame); err != nil {
			p.dropConn(conn)
			continue
		}
		return true
	}
	return false
}

func (p *remotePeer) ensureConn() (net.Conn, error) {
	p.mu.Lock()
	c, closed := p.conn, p.closed
	p.mu.Unlock()
	switch {
	case c != nil:
		return c, nil
	case closed: // Close flushes to connected peers only
		return nil, fmt.Errorf("transport: peer %d closed", p.node)
	}
	c, err := dialRetry(p.currentAddr, dialTimeout, p.n.cfg.redial, p.n.stop)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = c.Close()
		return nil, fmt.Errorf("transport: peer %d closed", p.node)
	}
	p.conn = c
	p.mu.Unlock()
	return c, nil
}

func (p *remotePeer) currentAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

func (p *remotePeer) dropConn(c net.Conn) {
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.mu.Unlock()
	_ = c.Close()
}

// remoteEndpoint adapts a RemoteNetwork to the Endpoint interface.
type remoteEndpoint struct{ n *RemoteNetwork }

func (e *remoteEndpoint) Send(to int, typ uint8, payload []byte) error {
	return e.n.send(to, typ, payload)
}
func (e *remoteEndpoint) Recv() (Message, bool) { return e.n.box.pop(time.Time{}) }
func (e *remoteEndpoint) RecvTimeout(d time.Duration) (Message, bool) {
	return e.n.box.pop(time.Now().Add(d))
}
func (e *remoteEndpoint) Node() int { return e.n.LocalNode() }
func (e *remoteEndpoint) Close() error {
	e.n.Close()
	return nil
}

// JoinCluster dials a coordinator (retrying within the policy), sends one
// FrameHello carrying hello, and returns the coordinator's FrameWelcome
// payload. The connection is handshake-only and closed before returning;
// cluster traffic flows over the peer table afterwards.
func JoinCluster(addr string, hello []byte, p RedialPolicy, cancel <-chan struct{}) ([]byte, error) {
	conn, err := dialRetry(func() string { return addr }, dialTimeout, p, cancel)
	if err != nil {
		return nil, fmt.Errorf("transport: join %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	if _, err := conn.Write(buildFrame(FrameHello, -1, 0, hello)); err != nil {
		return nil, fmt.Errorf("transport: join %s: send hello: %w", addr, err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: join %s: read welcome: %w", addr, err)
	}
	frameLen := binary.BigEndian.Uint32(hdr[:])
	if frameLen < frameHeader || frameLen > helloReplyLimit {
		return nil, fmt.Errorf("transport: join %s: bad welcome frame length %d", addr, frameLen)
	}
	frame := make([]byte, frameLen)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, fmt.Errorf("transport: join %s: read welcome: %w", addr, err)
	}
	if frame[0] != FrameWelcome {
		return nil, fmt.Errorf("transport: join %s: expected welcome frame, got type %d", addr, frame[0])
	}
	return frame[frameHeader:], nil
}
