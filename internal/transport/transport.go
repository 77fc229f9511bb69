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

// pop blocks until a message is deliverable, the box closes or the deadline
// passes (zero means wait forever). It always blocks on the cond: a push or
// a close wakes it at once, and a timer wakes it when the head message's
// not-before time (latency simulation) or the caller's deadline comes due.
func (mb *mailbox) pop(deadline time.Time) (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var timer *time.Timer
	for {
		if timer != nil {
			timer.Stop() // last round's; every return below leaves none armed
		}
		if mb.closed {
			return Message{}, false
		}
		now := time.Now()
		wake := deadline
		if len(mb.queue) > 0 {
			head := mb.queue[0]
			if !head.readyAt.After(now) {
				mb.queue = mb.queue[1:]
				return head.m, true
			}
			if wake.IsZero() || head.readyAt.Before(wake) {
				wake = head.readyAt
			}
		}
		if !deadline.IsZero() && !now.Before(deadline) {
			return Message{}, false
		}
		if !wake.IsZero() {
			timer = time.AfterFunc(wake.Sub(now), mb.wake)
		}
		mb.cond.Wait()
	}
}

// wake is the timer callback of a timed pop. It takes the lock so that it
// cannot fire between the popper arming the timer and entering Wait.
func (mb *mailbox) wake() {
	mb.mu.Lock()
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.queue = nil
	mb.cond.Broadcast()
}
