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
// every hot path permanently:
//
//   - A nil *Tracer (the default — Config.Tracer unset) reduces every
//     call to a nil check on a value-type Handle.
//   - A constructed but disabled tracer reduces every call to one atomic
//     load (the enabled flag), so "tracer shipped but off" costs nothing
//     measurable (see BenchmarkTraceOverhead).
//   - Enabled, histogram observations are a few atomic adds; ring events
//     take one short per-worker mutex, so workers never contend with each
//     other.
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
	// Pull retry/backoff: a stale pull was re-issued. Arg = vertex count.
	EvPullRetry

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
	EvPullRetry:       "pull_retry",
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

// ring is a fixed-capacity overwrite-oldest event buffer. One ring per
// worker keeps lock traffic local: a worker's goroutines only ever touch
// their own ring. The buffer is allocated by EnableEvents: a tracer that
// only ever feeds histograms (a served job's) holds no event memory.
type ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	count int64 // total pushed (may exceed len(buf))
}

func (r *ring) push(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.count++
	r.mu.Unlock()
}

// snapshot returns the buffered events oldest-first (nil while event
// capture was never enabled).
func (r *ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buf == nil {
		return nil
	}
	if r.count >= int64(len(r.buf)) {
		out := make([]Event, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append([]Event(nil), r.buf[:r.next]...)
}

// DefaultRingCapacity is the per-worker event capacity used when the
// caller passes 0.
const DefaultRingCapacity = 1 << 16

// Tracer records events and latency histograms for one job.
type Tracer struct {
	// enabled is the master switch: histograms and event counters record
	// only while set. events additionally gates the ring buffers (they
	// are only worth paying for when a trace dump was requested).
	enabled atomic.Bool
	events  atomic.Bool

	start   time.Time
	ringCap int
	rings   []*ring
	hists   [NumMetrics]Histogram
	// eventCounts survive ring overwrites; they feed the Prometheus sink.
	eventCounts [NumEventTypes]atomic.Int64
}

// New returns a disabled tracer for `nodes` nodes (workers + master) with
// the given per-node ring capacity (0 = DefaultRingCapacity). Call Enable
// (histograms + counters) and EnableEvents (ring buffers) to turn it on.
func New(nodes, ringCap int) *Tracer {
	if nodes < 1 {
		nodes = 1
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCapacity
	}
	t := &Tracer{start: time.Now(), ringCap: ringCap, rings: make([]*ring, nodes)}
	for i := range t.rings {
		t.rings[i] = &ring{}
	}
	return t
}

// Enable turns on histogram and event-counter recording.
func (t *Tracer) Enable() *Tracer {
	t.enabled.Store(true)
	return t
}

// EnableEvents turns on ring-buffer event capture (implies Enable). The
// ring buffers are allocated here, before any event, not by New.
func (t *Tracer) EnableEvents() *Tracer {
	for _, r := range t.rings {
		r.mu.Lock()
		if r.buf == nil {
			r.buf = make([]Event, t.ringCap)
		}
		r.mu.Unlock()
	}
	t.enabled.Store(true)
	t.events.Store(true)
	return t
}

// Enabled reports whether the tracer records anything. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// EventsEnabled reports whether ring-buffer capture is on. Nil-safe.
func (t *Tracer) EventsEnabled() bool { return t != nil && t.events.Load() }

// Start returns the tracer's epoch (event timestamps are relative to it).
func (t *Tracer) Start() time.Time { return t.start }

// Handle returns a recording handle bound to (worker, component). Safe to
// call on a nil tracer: the returned handle drops everything. Out-of-range
// workers clamp to the last ring so foreign events are never lost.
func (t *Tracer) Handle(worker int, comp Component) Handle {
	if t != nil {
		if worker < 0 {
			worker = 0
		}
		if worker >= len(t.rings) {
			worker = len(t.rings) - 1
		}
	}
	return Handle{t: t, worker: int32(worker), comp: comp}
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
// recorded since Enable, regardless of ring overwrites.
func (t *Tracer) EventCount(typ EventType) int64 {
	if t == nil || int(typ) >= int(NumEventTypes) {
		return 0
	}
	return t.eventCounts[typ].Load()
}

// Histogram returns the histogram for m (read-only use).
func (t *Tracer) Histogram(m Metric) *Histogram {
	if t == nil || m >= NumMetrics {
		return nil
	}
	return &t.hists[m]
}

// Nodes returns the number of per-node rings.
func (t *Tracer) Nodes() int {
	if t == nil {
		return 0
	}
	return len(t.rings)
}

func (t *Tracer) record(worker int32, comp Component, typ EventType, dur time.Duration, arg uint64) {
	t.eventCounts[typ].Add(1)
	if !t.events.Load() {
		return
	}
	t.rings[worker].push(Event{
		TS:     int64(time.Since(t.start)),
		Dur:    int64(dur),
		Arg:    arg,
		Worker: worker,
		Type:   typ,
		Comp:   comp,
	})
}

// Handle is a value-type recording handle bound to one (worker,
// component) pair. The zero Handle (and any handle from a nil Tracer)
// drops every call after a single nil check, so instrumented components
// need no conditional wiring.
type Handle struct {
	t      *Tracer
	worker int32
	comp   Component
}

// Active reports whether recording is on; use it to gate the cost of
// gathering event arguments (e.g. a time.Now() for a span).
func (h Handle) Active() bool { return h.t != nil && h.t.enabled.Load() }

// Event records an instantaneous event.
func (h Handle) Event(typ EventType, arg uint64) {
	if h.t == nil || !h.t.enabled.Load() {
		return
	}
	h.t.record(h.worker, h.comp, typ, 0, arg)
}

// Span records an event that began at start and just finished.
func (h Handle) Span(typ EventType, start time.Time, arg uint64) {
	if h.t == nil || !h.t.enabled.Load() || start.IsZero() {
		return
	}
	h.t.record(h.worker, h.comp, typ, time.Since(start), arg)
}

// Observe adds one latency sample to metric m.
func (h Handle) Observe(m Metric, d time.Duration) {
	if h.t == nil || !h.t.enabled.Load() || m >= NumMetrics {
		return
	}
	h.t.hists[m].Observe(d)
}

// ObserveSpan records both a histogram sample and a span event for a
// phase that began at start: the common pattern for timed pipeline
// stages (update rounds, spill I/O, checkpoints).
func (h Handle) ObserveSpan(m Metric, typ EventType, start time.Time, arg uint64) {
	if h.t == nil || !h.t.enabled.Load() || start.IsZero() {
		return
	}
	d := time.Since(start)
	if m < NumMetrics {
		h.t.hists[m].Observe(d)
	}
	h.t.record(h.worker, h.comp, typ, d, arg)
}
