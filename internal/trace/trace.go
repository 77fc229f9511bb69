// Package trace is the structured event tracer of the task pipeline: a
// lock-cheap, per-worker ring-buffer recorder with typed events for the
// full task lifecycle (seed, active→inactive→ready→dead, split), the
// pipeline stages of Figure 2 (pull issued/answered, RCV cache
// hit/miss/evict, CMQ parking, spill write/load, steal REQ/MIGRATE/
// No_Task, checkpoint begin/end) and power-of-two-bucket latency
// histograms (task round time, pull RTT, spill I/O, migration,
// checkpoint) with percentile extraction.
//
// The tracer is designed so that instrumentation can stay compiled into
// every hot path permanently, and so that recording costs only what it
// records:
//
//   - A nil *Tracer (the default — Config.Tracer unset) reduces every
//     call to a nil check on a value-type Handle.
//   - A constructed but disabled tracer reduces every call to one atomic
//     load (the recording level), so "tracer shipped but off" costs
//     nothing measurable (see BenchmarkTraceOverhead).
//   - Each (worker, component) Handle records into its own shard of
//     histograms and event counters, padded off its neighbours' cache
//     lines; readers (Histogram, EventCount, Summary) merge the shards.
//     So no two workers write one line, and the executor threads of one
//     worker share only their executor shard.
//   - Enable records a histogram sample as two atomic adds and an event
//     as one counter add, all on the handle's own shard; EnableEvents
//     adds the per-worker ring, one short mutex per event.
//   - Timed phases pass the duration their caller already measured
//     (ObserveSpan), so the tracer adds no clock read to them.
//
// Three sinks consume a tracer: a Chrome trace-event JSON dump loadable
// in Perfetto (chrome.go), a per-phase percentile summary (hist.go)
// attached to cluster.Result, and the Prometheus text exposition that
// internal/metrics renders from Histogram and EventCount.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventType identifies one kind of pipeline event.
type EventType uint8

const (
	evInvalid EventType = iota

	// Task lifecycle (§4.2 status transitions).
	EvTaskSeed     // a seed task entered the pipeline; Arg = task ID
	EvTaskActive   // an update round ran; Dur = round time; Arg = task ID
	EvTaskInactive // task parked back into the task store; Arg = task ID
	EvTaskReady    // task entered the CPQ; Arg = task ID
	EvTaskDead     // task completed; Arg = task ID
	EvTaskSplit    // task split; Arg = number of children

	// Candidate retrieval (Figure 2).
	EvPullIssued   // one batched pull request sent; Arg = vertex count
	EvPullAnswered // one pull response resolved; Arg = vertex count
	EvCMQBatch     // task parked in the CMQ; Arg = pulls outstanding

	// RCV cache (§7).
	EvCacheHit   // Arg = vertex ID
	EvCacheMiss  // Arg = vertex ID
	EvCacheEvict // Arg = vertex ID

	// Task-store spilling (§4.3). Dur = I/O time; Arg = bytes.
	EvSpillWrite
	EvSpillLoad

	// Task stealing (§6.2).
	EvStealReq     // idle worker sent REQ to the master
	EvStealMigrate // victim shipped a batch; Arg = task count
	EvStealNoTask  // victim (or master) had nothing to give

	// Checkpointing (§7). Arg = epoch.
	EvCheckpointBegin
	EvCheckpointEnd

	// Transport. Arg = frame bytes.
	EvNetSend

	// Fault injection (internal/chaos). Arg = fault kind << 8 | message
	// type, so a trace dump shows both what was injected and on which
	// protocol message.
	EvFaultInjected
	// Stream re-send: a tick re-sent unacknowledged data frames. Arg = frame
	// count.
	EvRetransmit

	// Durable checkpointing (§7 hardening). Arg = epoch.
	EvCheckpointFail // snapshot or persist failed; the epoch was abandoned
	EvCheckpointSkip // the pipeline would not quiesce before the deadline
	EvRestoreFail    // a committed snapshot failed verification on restore

	// Fencing (multi-process clusters). A message bearing a stale slot
	// generation was refused — a zombie worker raced its replacement and
	// lost. Arg = fenced generation << 8 | message type.
	EvFenced

	// NumEventTypes is the number of event types, not one of them.
	NumEventTypes
)

// String returns the snake_case event name used by every sink.
func (e EventType) String() string {
	if int(e) < len(eventNames) {
		if n := eventNames[e]; n != "" {
			return n
		}
	}
	return "unknown"
}

var eventNames = [NumEventTypes]string{
	EvTaskSeed:        "task_seed",
	EvTaskActive:      "task_active",
	EvTaskInactive:    "task_inactive",
	EvTaskReady:       "task_ready",
	EvTaskDead:        "task_dead",
	EvTaskSplit:       "task_split",
	EvPullIssued:      "pull_issued",
	EvPullAnswered:    "pull_answered",
	EvCMQBatch:        "cmq_batch",
	EvCacheHit:        "cache_hit",
	EvCacheMiss:       "cache_miss",
	EvCacheEvict:      "cache_evict",
	EvSpillWrite:      "spill_write",
	EvSpillLoad:       "spill_load",
	EvStealReq:        "steal_req",
	EvStealMigrate:    "steal_migrate",
	EvStealNoTask:     "steal_no_task",
	EvCheckpointBegin: "checkpoint_begin",
	EvCheckpointEnd:   "checkpoint_end",
	EvNetSend:         "net_send",
	EvFaultInjected:   "fault_injected",
	EvRetransmit:      "retransmit",
	EvCheckpointFail:  "checkpoint_fail",
	EvCheckpointSkip:  "checkpoint_skip",
	EvRestoreFail:     "restore_fail",
	EvFenced:          "fenced",
}

// Component is the pipeline component an event belongs to; it becomes the
// per-worker track (thread) in the Chrome trace.
type Component uint8

const (
	CompSeeder     Component = iota // task generator: seed ranges, run by the executors
	CompStore                       // task store
	CompRetriever                   // candidate retriever + CMQ
	CompExecutor                    // task executor threads
	CompCache                       // RCV cache
	CompSpill                       // spill I/O
	CompSteal                       // task stealing
	CompCheckpoint                  // checkpointing
	CompNet                         // transport sends

	numComponents
)

// String returns the component track name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "unknown"
}

var componentNames = [numComponents]string{
	CompSeeder:     "seeder",
	CompStore:      "task-store",
	CompRetriever:  "retriever",
	CompExecutor:   "executor",
	CompCache:      "rcv-cache",
	CompSpill:      "spill",
	CompSteal:      "steal",
	CompCheckpoint: "checkpoint",
	CompNet:        "net",
}

// Event is one recorded pipeline event. TS and Dur are nanoseconds; TS is
// relative to the tracer's start so events across workers share a clock.
type Event struct {
	TS     int64
	Dur    int64
	Arg    uint64
	Worker int32
	Type   EventType
	Comp   Component
}

// ring is an overwrite-oldest event buffer of at most limit events. One ring
// per worker keeps lock traffic local: a worker's goroutines only ever touch
// their own ring. EnableEvents sets the limit and the buffer grows as events
// come: a tracer that only ever feeds histograms (a served job's) holds no
// event memory, and a short traced job only what it records.
type ring struct {
	mu    sync.Mutex
	buf   []Event
	limit int // 0 until EnableEvents
	next  int // the oldest event, once buf holds limit
}

func (r *ring) push(e Event) {
	r.mu.Lock()
	if n := len(r.buf); n < r.limit {
		if n == cap(r.buf) { // double, from 256 events, up to the limit
			r.buf = append(make([]Event, 0, n+min(max(n, 256), r.limit-n)), r.buf...)
		}
		r.buf = append(r.buf, e)
	} else if n > 0 {
		r.buf[r.next] = e
		r.next = (r.next + 1) % n
	}
	r.mu.Unlock()
}

// snapshot returns the buffered events oldest-first (nil while event
// capture was never enabled).
func (r *ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.limit == 0 {
		return nil
	}
	return append(append(make([]Event, 0, len(r.buf)), r.buf[r.next:]...), r.buf[:r.next]...)
}

// DefaultRingCapacity is the per-worker event capacity used when the
// caller passes 0.
const DefaultRingCapacity = 1 << 16

// Recording levels, each one recording what the level below it does and
// more.
const (
	levelOff    int32 = iota
	levelOn           // latency histograms and per-type event counters
	levelEvents       // + ring-buffer event capture
)

// shard is one (node, component) pair's share of the histograms and event
// counters. Only that pair's handles write it, and the trailing pad keeps
// the next shard's counters off its last cache line, so workers never
// write one line; readers merge every shard.
type shard struct {
	worker int32
	comp   Component
	hists  [NumMetrics]Histogram
	counts [NumEventTypes]atomic.Int64
	_      [64]byte
}

// Tracer records events and latency histograms for one job.
type Tracer struct {
	// level is what the tracer records (levelOff .. levelEvents); it only
	// ever rises.
	level atomic.Int32

	start   time.Time
	ringCap int
	rings   []*ring
	shards  []shard // node-major, one per (node, component)
}

// New returns a disabled tracer for `nodes` nodes (workers + master) with
// the given per-node ring capacity (0 = DefaultRingCapacity). Call Enable
// (histograms + counters) or EnableEvents (+ ring buffers) to turn it on.
func New(nodes, ringCap int) *Tracer {
	if nodes < 1 {
		nodes = 1
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCapacity
	}
	t := &Tracer{start: time.Now(), ringCap: ringCap, rings: make([]*ring, nodes),
		shards: make([]shard, nodes*int(numComponents))}
	for i := range t.rings {
		t.rings[i] = &ring{}
	}
	for i := range t.shards {
		t.shards[i].worker, t.shards[i].comp = int32(i/int(numComponents)), Component(i%int(numComponents))
	}
	return t
}

// Enable turns on histogram and event-counter recording; after
// EnableEvents it changes nothing.
func (t *Tracer) Enable() *Tracer {
	t.level.CompareAndSwap(levelOff, levelOn)
	return t
}

// EnableEvents turns on ring-buffer event capture (implies Enable). The
// rings grow as events come, up to the tracer's ring capacity.
func (t *Tracer) EnableEvents() *Tracer {
	for _, r := range t.rings {
		r.mu.Lock()
		r.limit = t.ringCap
		r.mu.Unlock()
	}
	t.level.Store(levelEvents)
	return t
}

// Enabled reports whether the tracer records anything. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.level.Load() >= levelOn }

// EventsEnabled reports whether ring-buffer capture is on. Nil-safe.
func (t *Tracer) EventsEnabled() bool { return t != nil && t.level.Load() >= levelEvents }

// Start returns the tracer's epoch (event timestamps are relative to it).
func (t *Tracer) Start() time.Time { return t.start }

// Handle returns a recording handle bound to (worker, component) and to
// that pair's shard; every Handle for one pair shares the shard. Make a
// handle once, where its component is built, and keep it. Safe to call on
// a nil tracer: the returned handle drops everything. Out-of-range workers
// clamp to the last ring so foreign events are never lost.
func (t *Tracer) Handle(worker int, comp Component) Handle {
	if t == nil {
		return Handle{}
	}
	worker = max(0, min(worker, len(t.rings)-1))
	return Handle{t: t, s: &t.shards[worker*int(numComponents)+int(comp)]}
}

// Events returns every buffered event, worker by worker, oldest-first
// within each worker.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, r := range t.rings {
		out = append(out, r.snapshot()...)
	}
	return out
}

// EventCount returns the total number of events of the given type
// recorded since Enable, regardless of ring overwrites, summed over every
// shard.
func (t *Tracer) EventCount(typ EventType) int64 {
	if t == nil || typ >= NumEventTypes {
		return 0
	}
	var n int64
	for i := range t.shards {
		n += t.shards[i].counts[typ].Load()
	}
	return n
}

// Histogram returns m's histogram merged over every shard: a snapshot,
// not a live view.
func (t *Tracer) Histogram(m Metric) *Histogram {
	if t == nil || m >= NumMetrics {
		return nil
	}
	h := new(Histogram)
	for i := range t.shards {
		h.merge(&t.shards[i].hists[m])
	}
	return h
}

// Nodes returns the number of per-node rings.
func (t *Tracer) Nodes() int {
	if t == nil {
		return 0
	}
	return len(t.rings)
}

// Handle is a value-type recording handle bound to one (worker,
// component) shard. The zero Handle (and any handle from a nil Tracer)
// drops every call after a single nil check, so instrumented components
// need no conditional wiring.
type Handle struct {
	t *Tracer
	s *shard
}

// Active reports whether recording is on; use it to gate the cost of
// gathering event arguments (e.g. a time.Now() for a span).
func (h Handle) Active() bool { return h.t != nil && h.t.level.Load() >= levelOn }

// record counts one event and, while event capture is on, rings it. A span
// of dur ends now, so it is stamped dur earlier: TS is where it began, or the
// tracer's start if it began before.
func (h Handle) record(level int32, typ EventType, dur time.Duration, arg uint64) {
	h.s.counts[typ].Add(1)
	if level < levelEvents {
		return
	}
	h.t.rings[h.s.worker].push(Event{
		TS:     max(0, int64(time.Since(h.t.start)-dur)),
		Dur:    int64(dur),
		Arg:    arg,
		Worker: h.s.worker,
		Type:   typ,
		Comp:   h.s.comp,
	})
}

// Event records an instantaneous event.
func (h Handle) Event(typ EventType, arg uint64) {
	if h.t == nil {
		return
	}
	if l := h.t.level.Load(); l >= levelOn {
		h.record(l, typ, 0, arg)
	}
}

// Span records an event that began at start and just finished.
func (h Handle) Span(typ EventType, start time.Time, arg uint64) {
	if h.t == nil || start.IsZero() {
		return
	}
	if l := h.t.level.Load(); l >= levelOn {
		h.record(l, typ, time.Since(start), arg)
	}
}

// Observe adds one latency sample to metric m.
func (h Handle) Observe(m Metric, d time.Duration) {
	if h.t == nil || m >= NumMetrics || h.t.level.Load() < levelOn {
		return
	}
	h.s.hists[m].Observe(d)
}

// ObserveSpan records both a histogram sample and a span event for a
// timed phase that just finished and took d: the common pattern for timed
// pipeline stages (update rounds, spill I/O, checkpoints). The caller
// measured d, so the tracer reads no clock of its own for it.
func (h Handle) ObserveSpan(m Metric, typ EventType, d time.Duration, arg uint64) {
	if h.t == nil {
		return
	}
	l := h.t.level.Load()
	if l < levelOn {
		return
	}
	if m < NumMetrics {
		h.s.hists[m].Observe(d)
	}
	h.record(l, typ, d, arg)
}
