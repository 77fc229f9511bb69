// Package metrics collects the resource counters the paper reports:
// computing-thread busy time (→ CPU utilization, Figs. 5–6 and Tables 1/4),
// network bytes (Tables 1/4, Fig. 11), disk I/O bytes (Figs. 5–6) and a
// live-memory estimate (peak memory columns).
//
// All counters are lock-free atomics so the hot paths (executor loop,
// transport send) stay cheap. A Sampler snapshots the counters on a fixed
// period to produce the utilization timelines of Figures 5 and 6.
//
// The package also publishes them: Prom (prom.go) is the one writer of
// the Prometheus text format, behind both the daemon's /metrics and the
// single-job Monitor's (monitor.go), which serves a running job's
// progress table over HTTP.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counters aggregates resource usage for one engine run (one worker or a
// whole cluster, depending on how it is shared).
type Counters struct {
	// busyNanos accumulates computing-thread busy time.
	busyNanos atomic.Int64
	// netBytes accumulates payload bytes crossing the (possibly simulated)
	// network; netMsgs counts messages.
	netBytes atomic.Int64
	netMsgs  atomic.Int64
	// diskRead/diskWrite accumulate task-store spill traffic.
	diskRead  atomic.Int64
	diskWrite atomic.Int64
	// liveBytes tracks the current estimated live memory; peakBytes its max.
	liveBytes atomic.Int64
	peakBytes atomic.Int64
	// tasksDone counts completed (dead) tasks; results counts emitted records.
	tasksDone atomic.Int64
	results   atomic.Int64
	// cacheHits / cacheMisses for the RCV cache.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// cacheOverflows counts vertices cached past a shard's capacity because
	// every entry there was referenced (cache.RCV.ForceInsert).
	cacheOverflows atomic.Int64
	// stolen counts tasks migrated by work stealing.
	stolen atomic.Int64
	// ckptFails counts checkpoint epochs a worker failed to snapshot or
	// persist (each one degraded durability and abandoned the epoch).
	ckptFails atomic.Int64
}

// AddBusy records d of computing-thread busy time.
func (c *Counters) AddBusy(d time.Duration) { c.busyNanos.Add(int64(d)) }

// AddNet records one network message of n payload bytes.
func (c *Counters) AddNet(n int64) {
	c.netBytes.Add(n)
	c.netMsgs.Add(1)
}

// AddDiskRead / AddDiskWrite record spill traffic.
func (c *Counters) AddDiskRead(n int64)  { c.diskRead.Add(n) }
func (c *Counters) AddDiskWrite(n int64) { c.diskWrite.Add(n) }

// AddLive adjusts the live-memory estimate by delta (may be negative) and
// updates the peak.
func (c *Counters) AddLive(delta int64) {
	v := c.liveBytes.Add(delta)
	for {
		p := c.peakBytes.Load()
		if v <= p || c.peakBytes.CompareAndSwap(p, v) {
			return
		}
	}
}

// ObserveLive sets the live-memory estimate to an absolute value (used by
// components that recompute their footprint periodically) and updates the
// peak.
func (c *Counters) ObserveLive(v int64) {
	c.liveBytes.Store(v)
	for {
		p := c.peakBytes.Load()
		if v <= p || c.peakBytes.CompareAndSwap(p, v) {
			return
		}
	}
}

// TaskDone records task completions; EmitResult records output records.
func (c *Counters) TaskDone()   { c.tasksDone.Add(1) }
func (c *Counters) EmitResult() { c.results.Add(1) }

// SetTasksDone sets the completed-task count to the one a checkpoint
// recorded (0 for a fresh start): a job rolled back or resumed reports the
// tasks of one fault-free run.
func (c *Counters) SetTasksDone(n int64) { c.tasksDone.Store(n) }

// CacheHit / CacheMiss record RCV cache outcomes.
func (c *Counters) CacheHit()  { c.cacheHits.Add(1) }
func (c *Counters) CacheMiss() { c.cacheMisses.Add(1) }

// CacheOverflow records an RCV insert past capacity.
func (c *Counters) CacheOverflow() { c.cacheOverflows.Add(1) }

// TasksStolen records n migrated tasks.
func (c *Counters) TasksStolen(n int) { c.stolen.Add(int64(n)) }

// CheckpointFailed records a failed checkpoint attempt.
func (c *Counters) CheckpointFailed() { c.ckptFails.Add(1) }

// Snapshot is a point-in-time copy of all counters.
type Snapshot struct {
	Busy        time.Duration
	NetBytes    int64
	NetMsgs     int64
	DiskRead    int64
	DiskWrite   int64
	LiveBytes   int64
	PeakBytes   int64
	TasksDone   int64
	Results     int64
	CacheHits   int64
	CacheMisses int64
	Stolen      int64
	CkptFails   int64
	// CacheOverflows rides the worker-process result only when non-zero.
	CacheOverflows int64 `json:",omitempty"`
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Busy:        time.Duration(c.busyNanos.Load()),
		NetBytes:    c.netBytes.Load(),
		NetMsgs:     c.netMsgs.Load(),
		DiskRead:    c.diskRead.Load(),
		DiskWrite:   c.diskWrite.Load(),
		LiveBytes:   c.liveBytes.Load(),
		PeakBytes:   c.peakBytes.Load(),
		TasksDone:   c.tasksDone.Load(),
		Results:     c.results.Load(),
		CacheHits:   c.cacheHits.Load(),
		CacheMisses: c.cacheMisses.Load(),
		Stolen:      c.stolen.Load(),
		CkptFails:   c.ckptFails.Load(),

		CacheOverflows: c.cacheOverflows.Load(),
	}
}

// Add returns the field-wise sum of two snapshots (peaks and lives sum,
// which is the right semantics for aggregate cluster memory).
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		Busy:        s.Busy + o.Busy,
		NetBytes:    s.NetBytes + o.NetBytes,
		NetMsgs:     s.NetMsgs + o.NetMsgs,
		DiskRead:    s.DiskRead + o.DiskRead,
		DiskWrite:   s.DiskWrite + o.DiskWrite,
		LiveBytes:   s.LiveBytes + o.LiveBytes,
		PeakBytes:   s.PeakBytes + o.PeakBytes,
		TasksDone:   s.TasksDone + o.TasksDone,
		Results:     s.Results + o.Results,
		CacheHits:   s.CacheHits + o.CacheHits,
		CacheMisses: s.CacheMisses + o.CacheMisses,
		Stolen:      s.Stolen + o.Stolen,
		CkptFails:   s.CkptFails + o.CkptFails,

		CacheOverflows: s.CacheOverflows + o.CacheOverflows,
	}
}

// CacheHitRate returns hits / (hits+misses), or 0 with no lookups.
func (s Snapshot) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// CostSeconds is the snapshot's compute spend in the serving layer's cost
// unit: busy computing-thread seconds. The QoS meter prices jobs in it,
// budgets are expressed in it, and tenant spend ledgers sum it.
func (s Snapshot) CostSeconds() float64 { return s.Busy.Seconds() }

// CPUUtil returns the average CPU utilization over elapsed wall time given
// `threads` computing threads: busy / (elapsed × threads), clamped to [0,1].
func (s Snapshot) CPUUtil(elapsed time.Duration, threads int) float64 {
	if elapsed <= 0 || threads <= 0 {
		return 0
	}
	u := float64(s.Busy) / (float64(elapsed) * float64(threads))
	if u > 1 {
		u = 1
	}
	return u
}

// TimelinePoint is one sample of the Figure 5/6 utilization plot.
type TimelinePoint struct {
	At time.Duration // since sampler start
	// CPUUtil is the busy fraction of computing threads over the sample
	// period; NetBytes and DiskBytes are per-period deltas.
	CPUUtil   float64
	NetBytes  int64
	DiskBytes int64
}

// Sampler periodically snapshots one or more Counters (summed) to build a
// timeline. With per-worker counters, passing all of them yields the
// cluster-wide utilization the paper plots.
type Sampler struct {
	cs      []*Counters
	period  time.Duration
	threads int

	mu     sync.Mutex
	points []TimelinePoint
	stop   chan struct{}
	done   chan struct{}
	start  time.Time
	prev   Snapshot
	prevAt time.Time
}

// NewSampler samples the summed counters every period, assuming `threads`
// total computing threads across all counters. A non-positive period or
// thread count is clamped so the sampler can never divide by zero (or
// panic in time.NewTicker) on a degenerate configuration.
func NewSampler(period time.Duration, threads int, cs ...*Counters) *Sampler {
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	if threads <= 0 {
		threads = 1
	}
	return &Sampler{cs: cs, period: period, threads: threads}
}

// sumSnapshot sums snapshots across all counters.
func (s *Sampler) sumSnapshot() Snapshot {
	var out Snapshot
	for _, c := range s.cs {
		out = out.Add(c.Snapshot())
	}
	return out
}

// Start begins sampling until Stop is called.
func (s *Sampler) Start() {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.start = time.Now()
	s.prev = s.sumSnapshot()
	s.prevAt = s.start
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
}

func (s *Sampler) sample() {
	now := s.sumSnapshot()
	at := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Ticker firings can bunch up on a loaded machine; normalize by the
	// actual interval and drop degenerate back-to-back samples. The dt
	// guard doubles as the divide-by-zero guard: an empty sample window
	// (dt <= 0, possible under clock steps) must not produce NaN points.
	dt := at.Sub(s.prevAt)
	if dt <= 0 || dt < s.period/4 {
		return
	}
	dBusy := now.Busy - s.prev.Busy
	util := float64(dBusy) / (float64(dt) * float64(s.threads))
	if util > 1 {
		util = 1
	}
	if util < 0 {
		util = 0
	}
	s.points = append(s.points, TimelinePoint{
		At:        at.Sub(s.start),
		CPUUtil:   util,
		NetBytes:  now.NetBytes - s.prev.NetBytes,
		DiskBytes: (now.DiskRead + now.DiskWrite) - (s.prev.DiskRead + s.prev.DiskWrite),
	})
	s.prev = now
	s.prevAt = at
}

// Stop halts sampling and returns the collected timeline.
func (s *Sampler) Stop() []TimelinePoint {
	if s.stop != nil {
		close(s.stop)
		<-s.done
		s.stop = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TimelinePoint(nil), s.points...)
}
