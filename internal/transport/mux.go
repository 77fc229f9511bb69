package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/metrics"
	"gminer/internal/trace"
)

// Mux multiplexes many logical jobs over one resident node set. Every node
// of the underlying network gets one demux goroutine; each job ("channel")
// gets a full set of virtual endpoints whose messages carry a channel-ID
// envelope (one uvarint prepended to the payload), so concurrent jobs share
// the warm transport without ever seeing each other's traffic.
//
// Messages for a channel that is not open — a job that finished, was
// cancelled, or never existed — are counted and dropped. That is exactly
// the stale-mailbox semantics a job-serving daemon needs: tearing a job
// down cannot strand undeliverable messages in a live mailbox, and a
// late-arriving response cannot leak into the next job's pipeline.
type Mux struct {
	under []Endpoint

	mu       sync.Mutex
	channels map[uint64]*muxChannel
	closed   bool

	wg      sync.WaitGroup
	dropped atomic.Int64
}

// muxChannel is one job's view of the network: a mailbox per node plus what
// its endpoints account to.
type muxChannel struct {
	boxes    []*mailbox
	counters []*metrics.Counters
	tracer   *trace.Tracer
}

// NewMux wraps the underlying endpoints (one per node, workers + master)
// and starts one demux goroutine per node. In a multi-process cluster
// each process's mux holds only its OWN node's underlying endpoint; the
// other entries are nil — no demux is spawned for them and sending
// through their virtual endpoints errors.
func NewMux(under []Endpoint) *Mux {
	m := NewMuxPaused(under)
	m.StartDemux()
	return m
}

// NewMuxPaused builds the mux without starting its demux goroutines; call
// StartDemux once the initial channels are open. A process joining a
// cluster mid-job needs this: control messages may already be queued in
// the underlying mailbox, and a demux racing the control channel's Open
// would drop them as unknown-channel traffic.
func NewMuxPaused(under []Endpoint) *Mux {
	return &Mux{under: under, channels: make(map[uint64]*muxChannel)}
}

// StartDemux launches one demux goroutine per non-nil underlying endpoint.
// Call exactly once on a paused mux.
func (m *Mux) StartDemux() {
	for node, ep := range m.under {
		if ep == nil {
			continue
		}
		m.wg.Add(1)
		go m.demux(node, ep)
	}
}

// demux routes one node's incoming messages to the owning channel's
// mailbox for that node.
func (m *Mux) demux(node int, ep Endpoint) {
	defer m.wg.Done()
	for {
		msg, ok := ep.Recv()
		if !ok {
			return
		}
		ch, n := binary.Uvarint(msg.Payload)
		if n <= 0 {
			m.dropped.Add(1)
			continue
		}
		msg.Payload = msg.Payload[n:]
		m.mu.Lock()
		var box *mailbox
		if c := m.channels[ch]; c != nil {
			box = c.boxes[node]
		}
		m.mu.Unlock()
		if box == nil {
			m.dropped.Add(1)
			continue
		}
		box.push(msg, time.Now())
	}
}

// Open registers channel ch and returns one virtual endpoint per node.
// counters, if non-nil, holds one metrics sink per node: sends through a
// virtual endpoint are charged there, the one place bytes are counted.
// tracer, if non-nil, records per-job EvNetSend events.
func (m *Mux) Open(ch uint64, counters []*metrics.Counters, tracer *trace.Tracer) ([]Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("transport: mux closed")
	}
	if _, dup := m.channels[ch]; dup {
		return nil, fmt.Errorf("transport: mux channel %d already open", ch)
	}
	c := &muxChannel{boxes: make([]*mailbox, len(m.under)), counters: counters, tracer: tracer}
	m.channels[ch] = c
	eps := make([]Endpoint, len(m.under))
	for i := range eps {
		c.boxes[i] = newMailbox()
		eps[i] = m.endpoint(ch, c, i)
	}
	return eps, nil
}

// endpoint binds node's current mailbox in channel c. Caller holds m.mu.
func (m *Mux) endpoint(ch uint64, c *muxChannel, node int) Endpoint {
	e := &muxEndpoint{mux: m, ch: ch, node: node, box: c.boxes[node], tracer: c.tracer}
	if node < len(c.counters) {
		e.counters = c.counters[node]
	}
	return e
}

// CloseChannel unregisters ch and closes its mailboxes: blocked receivers
// unblock with ok=false and later arrivals for the channel are dropped.
func (m *Mux) CloseChannel(ch uint64) {
	m.mu.Lock()
	c := m.channels[ch]
	delete(m.channels, ch)
	m.mu.Unlock()
	if c == nil {
		return
	}
	for _, b := range c.boxes {
		b.close()
	}
}

// Close shuts every channel down. The underlying network must be closed by
// its owner afterwards (that is what unblocks the demux goroutines).
func (m *Mux) Close() {
	m.mu.Lock()
	m.closed = true
	chans := make([]*muxChannel, 0, len(m.channels))
	for ch, c := range m.channels {
		chans = append(chans, c)
		delete(m.channels, ch)
	}
	m.mu.Unlock()
	for _, c := range chans {
		for _, b := range c.boxes {
			b.close()
		}
	}
}

// Closed reports whether Close has run: a receive that fails on one of the
// mux's endpoints then failed for good, not on a timeout.
func (m *Mux) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// WaitDemux blocks until every demux goroutine has exited (after the
// underlying network is closed). Used by leak-checked teardown.
func (m *Mux) WaitDemux() { m.wg.Wait() }

// Dropped returns how many messages arrived for unknown or closed channels
// (stale traffic from torn-down jobs) or with a torn envelope.
func (m *Mux) Dropped() int64 { return m.dropped.Load() }

// Channels returns the number of open channels.
func (m *Mux) Channels() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.channels)
}

// muxEndpoint is one node's endpoint within one channel.
type muxEndpoint struct {
	mux      *Mux
	ch       uint64
	node     int
	box      *mailbox
	counters *metrics.Counters
	tracer   *trace.Tracer
}

// Send prepends the channel envelope and forwards on the underlying
// endpoint. Accounting is per channel: the payload (plus framing estimate)
// is charged to this job's counters.
func (e *muxEndpoint) Send(to int, typ uint8, payload []byte) error {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(payload))
	buf = binary.AppendUvarint(buf, e.ch)
	buf = append(buf, payload...)
	bytes := int64(len(payload) + headerBytes)
	if e.counters != nil {
		e.counters.AddNet(bytes)
	}
	if e.tracer.Enabled() {
		e.tracer.Handle(e.node, trace.CompNet).Event(trace.EvNetSend, uint64(bytes))
	}
	und := e.mux.under[e.node]
	if und == nil {
		return fmt.Errorf("transport: mux node %d is remote (no local underlying endpoint)", e.node)
	}
	return und.Send(to, typ, buf)
}

func (e *muxEndpoint) Recv() (Message, bool) {
	return e.box.pop(time.Time{})
}

func (e *muxEndpoint) RecvTimeout(d time.Duration) (Message, bool) {
	return e.box.pop(time.Now().Add(d))
}

func (e *muxEndpoint) Node() int { return e.node }

func (e *muxEndpoint) Close() error {
	e.box.close()
	return nil
}
