// Package transport carries messages between the master and the workers.
//
// Two networks are provided: an in-process one (LocalNetwork, the default)
// whose optional latency/bandwidth model stands in for the paper's Gigabit
// Ethernet, and one TCP stack (RemoteNetwork): one node per listener,
// reaching the others through a peer address table — K+1 of them in one
// process for a loopback run, or one per OS process for a real cluster.
// Jobs never touch either directly: a Mux lays job-scoped channels over
// the node set, charges every payload byte to the sending job's metrics
// counters (the "Net. (GB)" columns of Tables 1 and 4) and owns the
// crash-simulation mailbox reset, so both are transport-independent.
package transport

import (
	"sync"
	"time"
)

// Message is one network message. Type values are defined by the cluster
// protocol (internal/cluster); the transport treats them as opaque.
type Message struct {
	From    int
	To      int
	Type    uint8
	Payload []byte
}

// headerBytes approximates per-message framing overhead for accounting.
const headerBytes = 16

// Endpoint is one node's connection to the network.
type Endpoint interface {
	// Send delivers a message asynchronously. It never blocks on the
	// receiver (inboxes are unbounded), so the cluster protocol cannot
	// deadlock on transport backpressure.
	Send(to int, typ uint8, payload []byte) error
	// Recv blocks for the next message; ok=false after Close.
	Recv() (Message, bool)
	// RecvTimeout waits up to d; ok=false on timeout or close.
	RecvTimeout(d time.Duration) (Message, bool)
	// Node returns this endpoint's node index.
	Node() int
	// Close shuts the endpoint; pending and future Recv calls return false.
	Close() error
}

// mailbox is an unbounded FIFO with optional not-before delivery times
// (latency simulation).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []timedMessage
	closed bool
}

type timedMessage struct {
	m       Message
	readyAt time.Time
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) push(m Message, readyAt time.Time) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return
	}
	mb.queue = append(mb.queue, timedMessage{m: m, readyAt: readyAt})
	mb.cond.Broadcast()
}

// pop blocks until a message is deliverable or the box closes. deadline
// zero means wait forever.
func (mb *mailbox) pop(deadline time.Time) (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if len(mb.queue) > 0 {
			head := mb.queue[0]
			wait := time.Until(head.readyAt)
			if wait <= 0 {
				mb.queue = mb.queue[1:]
				return head.m, true
			}
			// Latency simulation: sleep outside the lock until the head
			// message becomes deliverable, then retry.
			mb.mu.Unlock()
			if !deadline.IsZero() && time.Until(deadline) < wait {
				time.Sleep(time.Until(deadline))
				mb.mu.Lock()
				if len(mb.queue) > 0 && time.Now().After(mb.queue[0].readyAt) {
					continue
				}
				return Message{}, false
			}
			time.Sleep(wait)
			mb.mu.Lock()
			continue
		}
		if mb.closed {
			return Message{}, false
		}
		if !deadline.IsZero() {
			if !time.Now().Before(deadline) {
				return Message{}, false
			}
			// Condition variables have no timed wait; poll with a short
			// sleep. Timeouts are only used on control paths, so the poll
			// cost is irrelevant.
			mb.mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			mb.mu.Lock()
			continue
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.queue = nil
	mb.cond.Broadcast()
}
