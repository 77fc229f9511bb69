package transport

import (
	"fmt"
	"sync"
	"time"

	"gminer/internal/metrics"
	"gminer/internal/trace"
)

// LocalConfig configures the in-process network.
type LocalConfig struct {
	// Nodes is the total node count (workers + master).
	Nodes int
	// Latency is the simulated one-way delivery latency per message.
	Latency time.Duration
	// BandwidthBps simulates a shared per-receiver link: each message adds
	// payload/bandwidth of serialization delay behind earlier messages to
	// the same node. 0 = infinite.
	BandwidthBps int64
	// Counters, if non-nil, holds one metrics sink per node; sends are
	// charged to the sender's counters.
	Counters []*metrics.Counters
	// Tracer, if non-nil, records one EvNetSend per message, attributed
	// to the sending node.
	Tracer *trace.Tracer
}

// LocalNetwork is the in-process transport: unbounded per-node mailboxes
// with optional latency and bandwidth simulation.
type LocalNetwork struct {
	cfg   LocalConfig
	boxes []*mailbox

	// mu guards lastArrival, which models per-receiver link serialization
	// for bandwidth.
	mu          sync.Mutex
	lastArrival []time.Time
}

// NewLocal creates an in-process network with cfg.Nodes endpoints.
func NewLocal(cfg LocalConfig) *LocalNetwork {
	n := &LocalNetwork{
		cfg:         cfg,
		boxes:       make([]*mailbox, cfg.Nodes),
		lastArrival: make([]time.Time, cfg.Nodes),
	}
	for i := range n.boxes {
		n.boxes[i] = newMailbox()
	}
	return n
}

// Endpoint returns node i's endpoint.
func (n *LocalNetwork) Endpoint(node int) Endpoint {
	return &localEndpoint{net: n, node: node}
}

// Close shuts every endpoint.
func (n *LocalNetwork) Close() {
	for _, b := range n.boxes {
		b.close()
	}
}

func (n *LocalNetwork) send(from, to int, typ uint8, payload []byte) error {
	if to < 0 || to >= len(n.boxes) {
		return fmt.Errorf("transport: invalid destination node %d", to)
	}
	bytes := int64(len(payload) + headerBytes)
	if n.cfg.Counters != nil && from >= 0 && from < len(n.cfg.Counters) && n.cfg.Counters[from] != nil {
		n.cfg.Counters[from].AddNet(bytes)
	}
	if n.cfg.Tracer.Enabled() {
		n.cfg.Tracer.Handle(from, trace.CompNet).Event(trace.EvNetSend, uint64(bytes))
	}
	readyAt := time.Now()
	if n.cfg.Latency > 0 || n.cfg.BandwidthBps > 0 {
		readyAt = readyAt.Add(n.cfg.Latency)
		if n.cfg.BandwidthBps > 0 {
			ser := time.Duration(bytes * int64(time.Second) / n.cfg.BandwidthBps)
			n.mu.Lock()
			start := readyAt
			if n.lastArrival[to].After(start) {
				start = n.lastArrival[to]
			}
			readyAt = start.Add(ser)
			n.lastArrival[to] = readyAt
			n.mu.Unlock()
		}
	}
	// Copy the payload: senders reuse encode buffers.
	var cp []byte
	if len(payload) > 0 {
		cp = append([]byte(nil), payload...)
	}
	n.boxes[to].push(Message{From: from, To: to, Type: typ, Payload: cp}, readyAt)
	return nil
}

type localEndpoint struct {
	net  *LocalNetwork
	node int
}

func (e *localEndpoint) Send(to int, typ uint8, payload []byte) error {
	return e.net.send(e.node, to, typ, payload)
}

func (e *localEndpoint) Recv() (Message, bool) {
	return e.net.boxes[e.node].pop(time.Time{})
}

func (e *localEndpoint) RecvTimeout(d time.Duration) (Message, bool) {
	return e.net.boxes[e.node].pop(time.Now().Add(d))
}

func (e *localEndpoint) Node() int { return e.node }

func (e *localEndpoint) Close() error {
	e.net.boxes[e.node].close()
	return nil
}
