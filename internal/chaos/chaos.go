// Package chaos is a deterministic fault-injection layer for the
// transport: Wrap decorates any transport.Endpoint so that sends are
// dropped, delayed, duplicated, reordered or black-holed during node
// partition windows, according to a seeded Profile. Every decision comes
// from a per-node RNG derived from Profile.Seed, so a failure run is
// reproducible given the same seed and workload.
//
// The paper's fault-tolerance story (§7: "we do not need to checkpoint
// any message") and the stealing protocol (§6.2) both assume the engine
// survives message loss to crashed workers; this package exists to
// exercise those paths for real. The cluster integrates it through
// Config.Chaos: every endpoint (workers + master) is wrapped, crash
// entries in the profile are executed against live workers, and each
// injected fault is recorded as an EvFaultInjected trace event so chaos
// runs show up in the Chrome/Prometheus sinks.
//
// No protocol is told what the profile injects, and every message type is
// faulted alike. The cluster's data frames (pulls and migration batches)
// ride a per-peer acknowledged stream that delivers each exactly once
// whatever the faults; control frames are re-sent or idempotent, and a chaos
// job ends by the same counting probe waves as any other (DESIGN §8).
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/trace"
	"gminer/internal/transport"
)

// Kind labels one injected fault; it is the high byte of the
// EvFaultInjected trace argument and the Stats index.
type Kind uint8

const (
	KindDrop Kind = iota
	KindDelay
	KindDup
	KindReorder
	KindPartition

	numKinds
)

// String returns the snake_case fault name.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindDup:
		return "dup"
	case KindReorder:
		return "reorder"
	case KindPartition:
		return "partition"
	}
	return "unknown"
}

// Window makes node Node unreachable (all messages to and from it are
// dropped) between From and To, measured from Controller.Begin.
type Window struct {
	Node     int
	From, To time.Duration
}

// Crash kills worker Node at time At (measured from job start). The
// cluster executes crashes by abandoning the worker's state and wiping
// its mailbox, exactly like a machine failure; recovery re-seeds the
// worker from its last checkpoint. RecoverAfter > 0 respawns the worker
// after that delay; 0 leaves recovery to the master's failure detector.
type Crash struct {
	Node         int
	At           time.Duration
	RecoverAfter time.Duration
}

// Profile describes what to inject. Rates are per-message probabilities
// in [0, 1]; delayed messages wait a uniform duration in
// [DelayMin, DelayMax]. The zero Profile injects nothing.
type Profile struct {
	// Seed drives every injection decision. Two runs with the same seed,
	// workload and message sequence inject the same faults.
	Seed uint64

	Drop    float64 // silently lose the message
	Delay   float64 // hold the message for a random duration
	Dup     float64 // deliver the message twice
	Reorder float64 // hold the message so later sends overtake it

	DelayMin time.Duration
	DelayMax time.Duration

	// Partitions are node-unreachability windows.
	Partitions []Window
	// Crashes are worker kill (+ optional recover) events, executed by
	// the cluster runtime, not by the endpoint wrapper.
	Crashes []Crash
}

// Default is the profile used by the chaos CI soak: light loss, frequent
// small delays, occasional duplication and reordering, and one worker
// crash mid-job (worker 1 at 15ms, recovered from its last checkpoint).
func Default(seed uint64) Profile {
	return Profile{
		Seed:     seed,
		Drop:     0.03,
		Delay:    0.15,
		Dup:      0.02,
		Reorder:  0.03,
		DelayMin: 100 * time.Microsecond,
		DelayMax: 1500 * time.Microsecond,
		Crashes:  []Crash{{Node: 1, At: 15 * time.Millisecond}},
	}
}

// Heavy is the nightly-soak profile: an order of magnitude more loss and
// delay, two crash events and a partition window.
func Heavy(seed uint64) Profile {
	return Profile{
		Seed:     seed,
		Drop:     0.10,
		Delay:    0.30,
		Dup:      0.05,
		Reorder:  0.10,
		DelayMin: 200 * time.Microsecond,
		DelayMax: 4 * time.Millisecond,
		Partitions: []Window{
			{Node: 0, From: 30 * time.Millisecond, To: 45 * time.Millisecond},
		},
		Crashes: []Crash{
			{Node: 1, At: 15 * time.Millisecond},
			{Node: 2, At: 60 * time.Millisecond},
		},
	}
}

// HeartbeatFlaky is the fencing-soak profile: aimed at a worker's
// heartbeat path only (the cluster tests' HeartbeatChaos hook), it loses most
// beats and delays the rest well past typical failure timeouts. The
// worker stays alive and mining — only its liveness signal degrades —
// which is exactly the split-brain setup generation fencing must
// survive: the coordinator reclaims the "silent" slot, and the delayed
// beats that later trickle in must be refused, not re-admit the zombie.
func HeartbeatFlaky(seed uint64) Profile {
	return Profile{
		Seed:     seed,
		Drop:     0.95,
		Delay:    0.05,
		DelayMin: 200 * time.Millisecond,
		DelayMax: 600 * time.Millisecond,
	}
}

// Active reports whether the profile injects anything at all.
func (p Profile) Active() bool {
	return p.Drop > 0 || p.Delay > 0 || p.Dup > 0 || p.Reorder > 0 ||
		len(p.Partitions) > 0 || len(p.Crashes) > 0
}

func (p Profile) delayMax() time.Duration {
	if p.DelayMax > 0 {
		return p.DelayMax
	}
	return 2 * time.Millisecond
}

func (p Profile) delayMin() time.Duration {
	if p.DelayMin > 0 && p.DelayMin <= p.delayMax() {
		return p.DelayMin
	}
	return 0
}

// Stats counts delivered and injected-fault messages across all wrapped
// endpoints of one Controller.
type Stats struct {
	Sends      int64 // messages offered to wrapped endpoints
	Drops      int64
	Delays     int64
	Dups       int64
	Reorders   int64
	Partitions int64 // messages black-holed by partition windows
}

// Injected is the total number of injected faults.
func (s Stats) Injected() int64 {
	return s.Drops + s.Delays + s.Dups + s.Reorders + s.Partitions
}

// Controller owns one profile instance: the shared clock for windows and
// crashes, the fault counters, and the tracer faults are reported to.
// A nil *Controller is inert (methods are nil-safe).
type Controller struct {
	p      Profile
	tracer atomic.Pointer[trace.Tracer]

	startMu sync.Mutex
	start   time.Time

	counts [numKinds]atomic.Int64
	sends  atomic.Int64
}

// New builds a controller for p.
func New(p Profile) *Controller { return &Controller{p: p} }

// Wrap is the one-shot convenience form: decorate ep with a fresh
// controller for p.
func Wrap(ep transport.Endpoint, p Profile) transport.Endpoint {
	return New(p).Wrap(ep)
}

// Profile returns the controller's profile (zero Profile for nil).
func (c *Controller) Profile() Profile {
	if c == nil {
		return Profile{}
	}
	return c.p
}

// Crashes returns the profile's crash schedule, nil-safe.
func (c *Controller) Crashes() []Crash {
	if c == nil {
		return nil
	}
	return c.p.Crashes
}

// SetTracer attaches the tracer EvFaultInjected events are recorded to.
func (c *Controller) SetTracer(t *trace.Tracer) {
	if c != nil {
		c.tracer.Store(t)
	}
}

// Begin marks t0 for partition windows and crash times. Idempotent; the
// cluster calls it right before the workers start. Wrap calls it lazily
// if the caller never does.
func (c *Controller) Begin() {
	if c == nil {
		return
	}
	c.startMu.Lock()
	if c.start.IsZero() {
		c.start = time.Now()
	}
	c.startMu.Unlock()
}

func (c *Controller) sinceStart() time.Duration {
	c.startMu.Lock()
	s := c.start
	c.startMu.Unlock()
	if s.IsZero() {
		return 0
	}
	return time.Since(s)
}

// Stats returns the running fault counters (zero for nil).
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Sends:      c.sends.Load(),
		Drops:      c.counts[KindDrop].Load(),
		Delays:     c.counts[KindDelay].Load(),
		Dups:       c.counts[KindDup].Load(),
		Reorders:   c.counts[KindReorder].Load(),
		Partitions: c.counts[KindPartition].Load(),
	}
}

// Wrap decorates ep with the controller's fault profile. The wrapper
// owns its own RNG stream, derived from (Profile.Seed, ep.Node()), so
// per-node decision sequences do not depend on cross-node interleaving.
// Recv, Node and Close pass through. Nil controller returns ep as is.
func (c *Controller) Wrap(ep transport.Endpoint) transport.Endpoint {
	if c == nil || !c.p.Active() {
		return ep
	}
	c.Begin()
	return &endpoint{
		inner: ep,
		c:     c,
		rng:   rand.New(rand.NewSource(int64(splitmix(c.p.Seed, uint64(ep.Node()))))),
	}
}

// splitmix64 finalizer: decorrelates (seed, node) pairs into RNG seeds.
func splitmix(seed, node uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(node+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type endpoint struct {
	inner transport.Endpoint
	c     *Controller

	mu  sync.Mutex
	rng *rand.Rand
}

// decision is one sampled injection plan for a message.
type decision struct {
	kind Kind
	hold time.Duration // for delay/reorder
	hit  bool          // a fault applies to this message
}

// Send applies the fault profile and forwards to the inner endpoint.
// Dropped messages return nil: a lossy network gives the sender no
// error, which is exactly what the cluster's stream and control paths must
// survive.
func (e *endpoint) Send(to int, typ uint8, payload []byte) error {
	c := e.c
	c.sends.Add(1)
	now := c.sinceStart()
	for _, w := range c.p.Partitions {
		if (w.Node == to || w.Node == e.inner.Node()) && now >= w.From && now < w.To {
			c.inject(e.inner.Node(), KindPartition, typ)
			return nil
		}
	}
	d := e.sample()
	if !d.hit {
		return e.inner.Send(to, typ, payload)
	}
	switch d.kind {
	case KindDrop:
		c.inject(e.inner.Node(), KindDrop, typ)
		return nil
	case KindDup:
		c.inject(e.inner.Node(), KindDup, typ)
		if err := e.inner.Send(to, typ, payload); err != nil {
			return err
		}
		return e.inner.Send(to, typ, payload)
	case KindDelay, KindReorder:
		c.inject(e.inner.Node(), d.kind, typ)
		// Senders reuse encode buffers, so the payload must be copied
		// before the deferred delivery.
		var cp []byte
		if len(payload) > 0 {
			cp = append([]byte(nil), payload...)
		}
		inner := e.inner
		time.AfterFunc(d.hold, func() {
			_ = inner.Send(to, typ, cp)
		})
		return nil
	}
	return e.inner.Send(to, typ, payload)
}

// sample draws one injection decision. The fault classes are evaluated
// in a fixed order (drop, dup, delay, reorder) against a single uniform
// draw, so their rates are exact and mutually exclusive.
func (e *endpoint) sample() decision {
	p := e.c.p
	e.mu.Lock()
	u := e.rng.Float64()
	var hold time.Duration
	lo, hi := p.delayMin(), p.delayMax()
	if hi > lo {
		hold = lo + time.Duration(e.rng.Int63n(int64(hi-lo)))
	} else {
		hold = hi
	}
	e.mu.Unlock()

	switch {
	case u < p.Drop:
		return decision{kind: KindDrop, hit: true}
	case u < p.Drop+p.Dup:
		return decision{kind: KindDup, hit: true}
	case u < p.Drop+p.Dup+p.Delay:
		return decision{kind: KindDelay, hold: hold, hit: true}
	case u < p.Drop+p.Dup+p.Delay+p.Reorder:
		return decision{kind: KindReorder, hold: hold, hit: true}
	}
	return decision{}
}

func (c *Controller) inject(node int, kind Kind, typ uint8) {
	c.counts[kind].Add(1)
	if t := c.tracer.Load(); t.Enabled() {
		t.Handle(node, trace.CompNet).Event(trace.EvFaultInjected, uint64(kind)<<8|uint64(typ))
	}
}

func (e *endpoint) Recv() (transport.Message, bool) { return e.inner.Recv() }

func (e *endpoint) RecvTimeout(d time.Duration) (transport.Message, bool) {
	return e.inner.RecvTimeout(d)
}

func (e *endpoint) Node() int { return e.inner.Node() }

func (e *endpoint) Close() error { return e.inner.Close() }
