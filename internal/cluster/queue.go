package cluster

import (
	"sync"
	"sync/atomic"

	"gminer/internal/core"
)

// taskQueue is the CPQ of Figure 2: an unbounded FIFO of ready tasks
// consumed by the executor's computing threads. A high-water mark lets the
// candidate retriever apply backpressure (waitBelow) so ready tasks — and
// the cache references they hold — stay bounded.
//
// The FIFO is a ring that doubles when full, so a queue at its working
// size allocates nothing. Its length is mirrored in an atomic, written
// under mu, so the executors' and the tick's len checks take no lock.
type taskQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*core.Task // power-of-two capacity
	head   int          // index of the oldest task
	n      atomic.Int64 // tasks queued
	kicked bool         // the next pop to find the queue empty returns no task
	closed bool
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{ring: make([]*core.Task, 64)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a ready task.
func (q *taskQueue) push(t *core.Task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	n := int(q.n.Load())
	if n == len(q.ring) {
		grown := make([]*core.Task, 2*n)
		copy(grown, q.ring[q.head:])
		copy(grown[n-q.head:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+n)&(len(q.ring)-1)] = t
	q.n.Store(int64(n + 1))
	q.cond.Broadcast()
}

// pop blocks for the next task; ok=false once closed and drained. A kick
// makes it return nil, true instead of waiting on.
func (q *taskQueue) pop() (*core.Task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if n := q.n.Load(); n > 0 {
			t := q.ring[q.head]
			// A slot left set would keep a finished task, and what it
			// points to, reachable.
			q.ring[q.head] = nil
			q.head = (q.head + 1) & (len(q.ring) - 1)
			q.n.Store(n - 1)
			q.cond.Broadcast() // wake waitBelow waiters
			return t, true
		}
		if q.closed {
			return nil, false
		}
		if q.kicked {
			q.kicked = false
			return nil, true
		}
		q.cond.Wait()
	}
}

// kick makes the next pop to find the queue empty — one waiting now, or one
// about to wait — return no task, so its executor looks for a seed range
// again.
func (q *taskQueue) kick() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.kicked = true
	q.cond.Broadcast()
}

// waitBelow blocks while the queue holds >= n tasks (and is not closed).
func (q *taskQueue) waitBelow(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n.Load() >= int64(n) && !q.closed {
		q.cond.Wait()
	}
}

// len is the number of queued tasks, read without the lock: a reading a
// push or pop may move at once, which every caller takes as a hint.
func (q *taskQueue) len() int { return int(q.n.Load()) }

func (q *taskQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// taskBuffer is the executor-side buffer of Figure 2: inactive tasks
// accumulate here and are flushed to the task store in batches so tasks
// with common remote candidates are gathered before LSH signing.
type taskBuffer struct {
	mu    sync.Mutex
	tasks []*core.Task
	limit int
}

func newTaskBuffer(limit int) *taskBuffer {
	return &taskBuffer{limit: limit}
}

// add buffers a task; returns a batch to flush when the buffer is full.
func (b *taskBuffer) add(t *core.Task) []*core.Task {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tasks = append(b.tasks, t)
	if len(b.tasks) >= b.limit {
		out := b.tasks
		b.tasks = nil
		return out
	}
	return nil
}

// drain removes and returns everything buffered.
func (b *taskBuffer) drain() []*core.Task {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.tasks
	b.tasks = nil
	return out
}

func (b *taskBuffer) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.tasks)
}
