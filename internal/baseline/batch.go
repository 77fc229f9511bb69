package baseline

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/memctl"
	"gminer/internal/metrics"
)

// Batch is the G-thinker-like subgraph-centric engine (§2): it executes
// the exact same core.Algorithm implementations as the G-Miner runtime,
// but "follows a batch processing framework to execute the computation
// and communication parts of a job in batches, which makes it hard to
// fully utilize the CPU and network resources":
//
//   - all seed tasks are spawned up front (no streaming, no disk spill);
//   - execution alternates a whole-batch COMPUTE phase and a whole-batch
//     COMMUNICATE phase with a barrier in between, so CPU idles while
//     vertices are pulled and the network idles while tasks compute
//     (the sawtooth of Figure 5);
//   - remote vertices live in a plain LRU cache with no reference
//     counting, and tasks run in FIFO order with no LSH clustering, so
//     the hit rate is whatever locality happens to exist;
//   - there is no task stealing and no fault tolerance.
type Batch struct{}

// Name identifies the engine.
func (Batch) Name() string { return "gthinker-like" }

// BatchResult carries the outcome of a Batch run.
type BatchResult struct {
	Records   []string
	AggGlobal any
	Rounds    int
}

// batchWorker is one simulated node.
type batchWorker struct {
	id      int
	local   map[graph.VertexID]*graph.Vertex
	pending []*core.Task // tasks waiting for the next comm phase
	ready   []*core.Task
	cache   *lruCache
	partial any

	results []string
	resMu   sync.Mutex

	engine *batchEngine
}

type batchEngine struct {
	cfg      Config
	g        *graph.Graph
	admitMu  sync.Mutex
	algo     core.Algorithm
	agg      core.Aggregator
	workers  []*batchWorker
	owner    func(graph.VertexID) int
	global   atomic.Value // aggregator global, synced at barriers
	budget   *memctl.Budget
	counters *metrics.Counters
	taskMem  atomic.Int64
}

// Run executes the algorithm and returns its merged outputs.
func (b Batch) Run(g *graph.Graph, algoImpl core.Algorithm, cfg Config) (*BatchResult, Stats, error) {
	cfg = cfg.defaults()
	start := time.Now()
	counters := &metrics.Counters{}
	var sampler *metrics.Sampler
	if cfg.SampleEvery > 0 {
		sampler = metrics.NewSampler(cfg.SampleEvery, cfg.Workers*cfg.Threads, counters)
		sampler.Start()
	}
	eng := &batchEngine{
		cfg:      cfg,
		g:        g,
		algo:     algoImpl,
		budget:   memctl.NewBudget(cfg.MemBudget),
		counters: counters,
	}
	if ap, ok := algoImpl.(core.AggregatorProvider); ok {
		eng.agg = ap.Aggregator()
		eng.global.Store(eng.agg.Zero())
	}
	// Every simulated node holds g, so the label column G-Miner replicates
	// is here for the asking: the comparison stays one of engines. G⁺ is
	// not offered, so an oriented plan runs on the undirected graph.
	if p := core.PlanOf(algoImpl); p.Labels != nil {
		p.Labels(g.LabelColumn())
	}
	if err := eng.budget.Charge(g.FootprintBytes()); err != nil {
		return nil, statsNow(start, eng.budget, counters, 0), err
	}
	eng.owner = func(id graph.VertexID) int {
		return int(lsh.HashID(uint64(id)) % uint64(cfg.Workers))
	}
	eng.workers = make([]*batchWorker, cfg.Workers)
	for i := range eng.workers {
		eng.workers[i] = &batchWorker{
			id:     i,
			local:  make(map[graph.VertexID]*graph.Vertex),
			cache:  newLRU(cfg.CacheVertices),
			engine: eng,
		}
		if eng.agg != nil {
			eng.workers[i].partial = eng.agg.Zero()
		}
	}
	g.ForEach(func(v *graph.Vertex) bool {
		w := eng.workers[eng.owner(v.ID)]
		w.local[v.ID] = v
		return true
	})

	// Spawn ALL tasks up front (batch framework).
	dl := newDeadline(cfg.Timeout)
	for _, w := range eng.workers {
		w := w
		for _, v := range w.local {
			algoImpl.Seed(v, func(t *core.Task) {
				eng.chargeTask(t)
				w.admit(t)
			})
		}
	}

	rounds := 0
	for {
		if dl.exceeded() {
			if sampler != nil {
				sampler.Stop()
			}
			return nil, statsNow(start, eng.budget, counters, rounds), ErrTimeout
		}
		if eng.budget.Limit() > 0 && eng.budget.Used() > eng.budget.Limit() {
			if sampler != nil {
				sampler.Stop()
			}
			return nil, statsNow(start, eng.budget, counters, rounds), memctl.ErrOOM
		}
		work := 0
		for _, w := range eng.workers {
			work += len(w.ready) + len(w.pending)
		}
		if work == 0 {
			break
		}
		rounds++

		// COMPUTE phase: every worker's threads drain its ready queue.
		// (Busy time is charged per task inside runTask so utilization
		// timelines see compute as it happens, not at phase barriers.)
		var wg sync.WaitGroup
		for _, w := range eng.workers {
			w := w
			tasks := w.ready
			w.ready = nil
			var next atomic.Int64
			for t := 0; t < cfg.Threads; t++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(tasks) {
							return
						}
						w.runTask(tasks[i])
					}
				}()
			}
		}
		wg.Wait()
		// Compute done: restore the cache capacity bound before pulling
		// the next batch (pins from the previous comm phase expire here).
		for _, w := range eng.workers {
			w.cache.trim()
		}

		// BARRIER + aggregator sync.
		if eng.agg != nil {
			merged := eng.agg.Zero()
			for _, w := range eng.workers {
				merged = eng.agg.Merge(merged, w.partial)
			}
			eng.global.Store(merged)
		}

		// COMMUNICATE phase: batch-pull every missing vertex; CPU idles.
		var commBytes int64
		for _, w := range eng.workers {
			commBytes += w.fillCache()
		}
		if commBytes > 0 {
			counters.AddNet(commBytes)
		}
		commSleep(cfg, commBytes)
		for _, w := range eng.workers {
			w.ready = append(w.ready, w.pending...)
			w.pending = nil
		}
		eng.observeMemory()
	}

	res := &BatchResult{Rounds: rounds}
	for _, w := range eng.workers {
		res.Records = append(res.Records, w.results...)
	}
	sort.Strings(res.Records)
	if eng.agg != nil {
		merged := eng.agg.Zero()
		for _, w := range eng.workers {
			merged = eng.agg.Merge(merged, w.partial)
		}
		res.AggGlobal = merged
	}
	stats := statsNow(start, eng.budget, counters, rounds)
	stats.CPUUtil = counters.Snapshot().CPUUtil(stats.Elapsed, cfg.Workers*cfg.Threads)
	stats.NetBytes = counters.Snapshot().NetBytes
	if sampler != nil {
		stats.Timeline = sampler.Stop()
	}
	return res, stats, nil
}

func (e *batchEngine) chargeTask(t *core.Task) {
	f := t.FootprintBytes()
	e.taskMem.Add(f)
	_ = e.budget.Charge(f) // checked per round in the main loop
}

func (e *batchEngine) releaseTask(t *core.Task) {
	f := t.FootprintBytes()
	e.taskMem.Add(-f)
	e.budget.Release(f)
}

func (e *batchEngine) observeMemory() {
	var cacheBytes int64
	for _, w := range e.workers {
		cacheBytes += w.cache.bytes
	}
	e.counters.ObserveLive(e.taskMem.Load() + cacheBytes)
}

// admit routes a task to ready or pending depending on whether its
// candidates are all resolvable locally right now.
func (w *batchWorker) admit(t *core.Task) {
	if w.missing(t) == nil {
		w.mu().Lock()
		w.ready = append(w.ready, t)
		w.mu().Unlock()
	} else {
		w.mu().Lock()
		w.pending = append(w.pending, t)
		w.mu().Unlock()
	}
}

func (w *batchWorker) mu() *sync.Mutex { return &w.engine.admitMu }

// missing returns the candidate IDs not in the local partition or cache.
func (w *batchWorker) missing(t *core.Task) []graph.VertexID {
	var out []graph.VertexID
	for _, id := range t.Cands {
		if _, ok := w.local[id]; ok {
			continue
		}
		if _, ok := w.cache.get(id); ok {
			continue
		}
		if !w.engine.g.Has(id) {
			continue // dangling candidate: resolves to nil forever
		}
		out = append(out, id)
	}
	return out
}

// runTask executes update rounds until the task dies or needs a pull.
func (w *batchWorker) runTask(t *core.Task) {
	for {
		if w.missing(t) != nil {
			// A needed vertex was evicted since the last comm phase;
			// requeue for the next batch pull.
			w.mu().Lock()
			w.pending = append(w.pending, t)
			w.mu().Unlock()
			return
		}
		if t.Round == 0 {
			t.Round = 1
		}
		cands := make([]*graph.Vertex, len(t.Cands))
		for i, id := range t.Cands {
			if v, ok := w.local[id]; ok {
				cands[i] = v
			} else if v, ok := w.cache.get(id); ok {
				cands[i] = v
			}
		}
		start := time.Now()
		w.engine.algo.Update(t, cands, w)
		w.engine.counters.AddBusy(time.Since(start))
		next, children := t.TakeTransition()
		for _, c := range children {
			w.engine.chargeTask(c)
			w.admit(c)
		}
		if next == nil {
			w.engine.releaseTask(t)
			w.engine.counters.TaskDone()
			return
		}
		t.Advance(next)
		if w.missing(t) != nil {
			w.mu().Lock()
			w.pending = append(w.pending, t)
			w.mu().Unlock()
			return
		}
	}
}

// fillCache pulls every vertex the pending tasks miss, in one batch, and
// returns the simulated byte volume.
func (w *batchWorker) fillCache() int64 {
	need := make(map[graph.VertexID]bool)
	for _, t := range w.pending {
		for _, id := range w.missing(t) {
			need[id] = true
		}
	}
	var bytes int64
	for id := range need {
		owner := w.engine.workers[w.engine.owner(id)]
		v, ok := owner.local[id]
		if !ok {
			continue // dangling: stays a nil candidate
		}
		w.cache.put(v)
		bytes += v.FootprintBytes()
	}
	return bytes
}

// core.Env implementation for batch workers.

// WorkerID implements core.Env.
func (w *batchWorker) WorkerID() int { return w.id }

// NumWorkers implements core.Env.
func (w *batchWorker) NumWorkers() int { return w.engine.cfg.Workers }

// Emit implements core.Env.
func (w *batchWorker) Emit(record string) {
	w.resMu.Lock()
	w.results = append(w.results, record)
	w.resMu.Unlock()
}

// AggUpdate implements core.Env.
func (w *batchWorker) AggUpdate(v any) {
	if w.engine.agg == nil {
		return
	}
	w.resMu.Lock()
	w.partial = w.engine.agg.Add(w.partial, v)
	w.resMu.Unlock()
}

// AggGlobal implements core.Env: the last barrier-synced global merged
// with the local partial.
func (w *batchWorker) AggGlobal() any {
	if w.engine.agg == nil {
		return nil
	}
	w.resMu.Lock()
	defer w.resMu.Unlock()
	return w.engine.agg.Merge(w.engine.global.Load(), w.partial)
}

// LocalVertex implements core.Env.
func (w *batchWorker) LocalVertex(id graph.VertexID) *graph.Vertex {
	return w.local[id]
}

// lruCache is the plain LRU vertex cache (no reference counting — the
// contrast to G-Miner's RCV cache).
type lruCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[graph.VertexID]*lruEntry
	head     *lruEntry // most recent
	tail     *lruEntry // least recent
	bytes    int64
}

type lruEntry struct {
	v          *graph.Vertex
	prev, next *lruEntry
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{capacity: capacity, entries: make(map[graph.VertexID]*lruEntry)}
}

func (c *lruCache) get(id graph.VertexID) (*graph.Vertex, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	c.moveFront(e)
	return e.v, true
}

// put inserts without evicting: a communication phase must be able to pin
// everything the next compute phase needs even beyond nominal capacity
// (the engine hoards memory, which is part of what Table 4 measures).
// trim restores the capacity bound between rounds.
func (c *lruCache) put(v *graph.Vertex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[v.ID]; ok {
		c.moveFront(e)
		return
	}
	e := &lruEntry{v: v}
	c.entries[v.ID] = e
	c.bytes += v.FootprintBytes()
	c.pushFront(e)
}

// trim evicts least-recently-used entries down to capacity.
func (c *lruCache) trim() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.entries) > c.capacity && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.v.ID)
		c.bytes -= victim.v.FootprintBytes()
	}
}

func (c *lruCache) moveFront(e *lruEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *lruCache) pushFront(e *lruEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
