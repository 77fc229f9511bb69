package cluster

import (
	"sync"

	"gminer/internal/core"
)

// taskQueue is the CPQ of Figure 2: an unbounded FIFO of ready tasks
// consumed by the executor's computing threads. A high-water mark lets the
// candidate retriever apply backpressure (WaitBelow) so ready tasks — and
// the cache references they hold — stay bounded.
type taskQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*core.Task
	closed bool
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
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
	q.queue = append(q.queue, t)
	q.cond.Broadcast()
}

// pop blocks for the next task; ok=false once closed and drained.
func (q *taskQueue) pop() (*core.Task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.queue) > 0 {
			t := q.queue[0]
			// The backing array outlives the pop: a slot left set would keep
			// a finished task, and what it points to, reachable.
			q.queue[0] = nil
			q.queue = q.queue[1:]
			q.cond.Broadcast() // wake WaitBelow waiters
			return t, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// waitBelow blocks while the queue holds >= n tasks (and is not closed).
func (q *taskQueue) waitBelow(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.queue) >= n && !q.closed {
		q.cond.Wait()
	}
}

func (q *taskQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

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
