package cluster

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/cache"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/spill"
	"gminer/internal/store"
	"gminer/internal/trace"
	"gminer/internal/transport"
	"gminer/internal/wire"
)

// pendingTask is one CMQ entry: a task waiting for `remaining` remote
// candidate vertices to arrive.
type pendingTask struct {
	t         *core.Task
	remaining int
}

// pullWaiter is a parked task's claim on one in-flight vertex: the arrival
// fills slot `slot` of its Pulled.
type pullWaiter struct {
	pt   *pendingTask
	slot int
}

// serveScratch is one pull-serving goroutine's lists, reused across requests.
type serveScratch struct {
	found   []*graph.Vertex
	missing []graph.VertexID
}

// pullServeWorkers is the size of each worker's pull-serve pool: one large
// neighborhood read does not head-of-line-block every other requester's
// response.
const pullServeWorkers = 4

// pullWork is one incoming pull request queued for the serve pool.
type pullWork struct {
	from    int
	payload []byte
}

// pullState tracks one in-flight vertex pull: the tasks waiting for it,
// when it was (last) requested for the RTT metric, and the retry/backoff
// state used when the request or response is lost to a crashed worker or
// a lossy network.
type pullState struct {
	waiters     []pullWaiter
	requestedAt time.Time
	retryAt     time.Time // next re-request time (exponential backoff)
	attempts    int       // retries so far
	owner       int       // last resolved owner (re-resolved on retry)
}

// Worker is one slave node (§5.1): it owns a graph partition (vertex
// table), runs the task pipeline of Figure 2, serves pull requests from
// other workers (request listener) and reports progress to the master.
type Worker struct {
	id   int
	cfg  Config
	algo core.Algorithm
	agg  core.Aggregator // nil when the algorithm has no aggregator
	ep   transport.Endpoint

	dir       *directory       // vertex and owner lookups, shared per graph epoch
	localIDs  []graph.VertexID // seed scan order
	graphFoot int64            // the partition, and other partitions' resident lists

	store   *store.Store
	cache   *cache.RCV
	cpq     *taskQueue
	buffer  *taskBuffer
	spiller *spill.Spiller

	counters *metrics.Counters

	// CMQ state.
	pendMu       sync.Mutex
	pendCond     *sync.Cond
	pulls        map[graph.VertexID]*pullState
	pendingTasks int
	// pullBatch accumulates pull requests per destination so many tasks'
	// pulls ride one message ("for efficient network transmission", the
	// same batching §6.2 applies to task migration).
	pullBatch map[int][]graph.VertexID
	pullCount int
	// pullSpare is the previous flush's batch map, kept (with its
	// per-owner slices truncated) so steady-state flushing allocates
	// neither the map nor the slices.
	pullSpare map[int][]graph.VertexID
	// retryRng jitters pull-retry backoff so a lost batch does not come
	// back as a synchronized burst. Guarded by pendMu.
	retryRng *rand.Rand

	// Progress counters. Termination detection (DESIGN.md) leans on the order
	// they move in: inflight is up before a task is admitted and down last
	// when it dies or leaves, activity bumps in between, a migrated batch is
	// in tasksSent before it is sent and in tasksRecv once it is in inflight.
	inflight   atomic.Int64 // alive tasks owned by this worker
	activity   atomic.Int64 // bumps on intake/death/migration
	tasksSent  atomic.Int64
	tasksRecv  atomic.Int64
	seedsDone  atomic.Bool
	seedCursor atomic.Int64
	// wave is the newest termination probe seen, echoed by every report;
	// repMu keeps reports leaving in the order they were built.
	wave  atomic.Int64
	repMu sync.Mutex

	// Aggregator state.
	aggMu      sync.Mutex
	aggPartial any
	aggGlobal  any

	// Output collector.
	resMu   sync.Mutex
	results []string

	stealBackoff atomic.Int32

	// pullServe feeds the pull-serve worker pool: the comm loop enqueues
	// incoming pull requests and pullServeWorkers goroutines encode and
	// send the responses.
	pullServe chan pullWork

	paused atomic.Bool // checkpoint quiesce
	killed atomic.Bool // failure simulation: drop all work silently
	// ckptErr is the most recent checkpoint failure (surfaced on
	// cluster.Result so operators see degraded durability, not silence).
	ckptMu   sync.Mutex
	ckptErr  error
	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	nextTaskID atomic.Uint64

	masterNode  int
	snapshots   *snapshotSink
	stealPolicy CostPolicy

	// Memory budget (Config.MemBudget): budgetCharged is what this worker
	// currently has charged (store + cache bytes; only touched from the
	// progress loop), oomFn aborts the job when a charge overflows.
	budgetCharged int64
	oomFn         func(error)

	// Trace handles, one per pipeline component (zero handles drop
	// everything when Config.Tracer is nil).
	trSeed  trace.Handle
	trRetr  trace.Handle
	trExec  trace.Handle
	trSteal trace.Handle
	trCkpt  trace.Handle
	// lastStealReq is when this worker last sent a steal REQ (UnixNano),
	// for the thief-side migration latency histogram. 0 = none pending.
	lastStealReq atomic.Int64
}

// newWorker builds worker `id` over the shared frozen graph, read through
// dir and local (its partition scan); restore, if non-nil, is a checkpoint
// snapshot to resume from.
func newWorker(id int, cfg Config, algo core.Algorithm, dir *directory, local *localTable,
	ep transport.Endpoint, counters *metrics.Counters, snapshots *snapshotSink, restore *workerSnapshot) (*Worker, error) {

	w := &Worker{
		id:         id,
		cfg:        cfg,
		algo:       algo,
		ep:         ep,
		dir:        dir,
		localIDs:   local.ids,
		graphFoot:  local.footprint,
		counters:   counters,
		stopCh:     make(chan struct{}),
		masterNode: cfg.Workers,
		pulls:      make(map[graph.VertexID]*pullState),
		pullBatch:  make(map[int][]graph.VertexID),
		retryRng:   rand.New(rand.NewSource(0xfa17 + int64(id))),
		snapshots:  snapshots,
	}
	w.pendCond = sync.NewCond(&w.pendMu)
	w.trSeed = cfg.Tracer.Handle(id, trace.CompSeeder)
	w.trRetr = cfg.Tracer.Handle(id, trace.CompRetriever)
	w.trExec = cfg.Tracer.Handle(id, trace.CompExecutor)
	w.trSteal = cfg.Tracer.Handle(id, trace.CompSteal)
	w.trCkpt = cfg.Tracer.Handle(id, trace.CompCheckpoint)
	w.stealPolicy = CostPolicy{Tc: stealCostMax, Tr: cfg.stealLocalityMax}
	if ap, ok := algo.(core.AggregatorProvider); ok {
		w.agg = ap.Aggregator()
		w.aggPartial = w.agg.Zero()
		w.aggGlobal = w.agg.Zero()
	}

	spillDir := cfg.SpillDir
	if spillDir != "" {
		// The JobID segment keeps concurrent jobs' spill files apart; it is
		// empty (a no-op path segment) in single-shot mode.
		spillDir = filepath.Join(spillDir, cfg.JobID, fmt.Sprintf("worker-%d", id))
	}
	sp, err := spill.New(spillDir, counters)
	if err != nil {
		return nil, err
	}
	w.spiller = sp
	sp.SetTrace(cfg.Tracer.Handle(id, trace.CompSpill))
	lshDims := 0
	if cfg.UseLSH {
		lshDims = cfg.LSHDims
	}
	w.store = store.New(store.Config{
		MemCapacity:   cfg.StoreMemCapacity,
		BlockCapacity: cfg.StoreBlockCapacity,
		LSHDims:       lshDims,
		Seed:          0x5eed + uint64(id),
	}, algo, sp, counters)
	w.cache = cache.NewSharded(cfg.CacheCapacity, cfg.CacheShards, counters)
	w.cache.SetTrace(cfg.Tracer.Handle(id, trace.CompCache))
	w.cpq = newTaskQueue()
	w.buffer = newTaskBuffer(cfg.BufferFlush)

	// Task IDs: high byte is the origin worker for global uniqueness.
	w.nextTaskID.Store(uint64(id) << 48)

	if restore != nil {
		if err := w.applySnapshot(restore); err != nil {
			// Nothing was mutated (the snapshot decodes before any intake);
			// release the resources this half-built worker holds so the
			// caller can retry with an older epoch or a fresh worker.
			w.stop()
			w.spiller.Close()
			return nil, err
		}
	}
	return w, nil
}

// start launches the pipeline goroutines.
func (w *Worker) start() {
	loops := []func(){w.commLoop, w.retrieverLoop, w.seederLoop, w.progressLoop}
	for i := 0; i < w.cfg.Threads; i++ {
		loops = append(loops, w.executorLoop)
	}
	// A few queued requests per serve goroutine, so the comm loop rarely
	// waits behind a slow encode.
	w.pullServe = make(chan pullWork, 4*pullServeWorkers)
	for i := 0; i < pullServeWorkers; i++ {
		loops = append(loops, w.pullServeLoop)
	}
	w.wg.Add(len(loops))
	for _, loop := range loops {
		go func(f func()) {
			defer w.wg.Done()
			f()
		}(loop)
	}
}

// stop shuts the pipeline down (idempotent).
func (w *Worker) stop() {
	w.stopOnce.Do(func() {
		close(w.stopCh)
		w.store.Close()
		w.cpq.close()
		w.cache.Close()
		w.pendMu.Lock()
		w.pendCond.Broadcast()
		w.pendMu.Unlock()
	})
}

// kill simulates a machine crash: all loops exit without flushing or
// notifying anyone, and all state is abandoned.
func (w *Worker) kill() {
	w.killed.Store(true)
	w.stop()
}

func (w *Worker) stopped() bool {
	select {
	case <-w.stopCh:
		return true
	default:
		return false
	}
}

// assignID gives a task a globally unique ID.
func (w *Worker) assignID(t *core.Task) {
	t.ID = w.nextTaskID.Add(1)
}

// intake admits a task into the pipeline: computes its to_pull set and
// buffers it toward the task store. migrated marks tasks received via
// task stealing.
func (w *Worker) intake(t *core.Task, migrated bool) {
	w.inflight.Add(1)
	w.activity.Add(1)
	if migrated {
		w.tasksRecv.Add(1)
	}
	w.computeToPull(t)
	w.bufferTask(t)
}

// bufferTask parks an inactive task in the task buffer, flushing a full
// batch to the store, and tells a checkpoint waiting for quiescence.
func (w *Worker) bufferTask(t *core.Task) {
	if batch := w.buffer.add(t); batch != nil {
		w.flushBatch(batch)
	}
	if w.paused.Load() {
		w.wake()
	}
}

// flushStarved moves the buffered tasks into an empty task store: batching
// inserts only pays while the store has other work to run first; once it is
// empty the buffer holds the only work left and the retriever may be blocked.
func (w *Worker) flushStarved() {
	if w.store.Size() == 0 {
		w.flushBatch(w.buffer.drain())
	}
}

// wake broadcasts pendCond: the retriever's CMQ window, the pause gate and
// a checkpoint's quiesce all wait on it.
func (w *Worker) wake() {
	w.pendMu.Lock()
	w.pendCond.Broadcast()
	w.pendMu.Unlock()
}

// waitResumed blocks while a checkpoint holds the pipeline paused; false
// once the worker stopped.
func (w *Worker) waitResumed() bool {
	if w.paused.Load() {
		w.pendMu.Lock()
		for w.paused.Load() && !w.stopped() {
			w.pendCond.Wait()
		}
		w.pendMu.Unlock()
	}
	return !w.stopped()
}

func (w *Worker) flushBatch(batch []*core.Task) {
	if len(batch) == 0 {
		return
	}
	if err := w.store.Insert(batch); err != nil {
		// Store closed: the job is shutting down; drop silently.
		return
	}
}

// computeToPull fills t.ToPull with the deduplicated candidates this worker
// cannot read without a pull — not in its partition, not resident — and
// counts the resident ones among the rest in t.Resident. Candidates owned by
// nobody (dangling IDs) are excluded — they resolve to nil at update time.
// Candidate lists are almost always ID-sorted (adjacency and level lists),
// where a duplicate sits next to its twin; only a list found unsorted pays
// for a set.
func (w *Worker) computeToPull(t *core.Task) {
	t.ToPull, t.Resident = t.ToPull[:0], 0
	var seen map[graph.VertexID]struct{}
	for i, id := range t.Cands {
		if seen == nil && i > 0 && id <= t.Cands[i-1] {
			if id == t.Cands[i-1] {
				continue
			}
			// First descent: from here on dedupe against everything seen.
			seen = make(map[graph.VertexID]struct{}, len(t.Cands))
			for _, p := range t.Cands[:i] {
				seen[p] = struct{}{}
			}
		}
		if seen != nil {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
		}
		owner := w.dir.owner(id)
		if owner < 0 || owner == w.id {
			continue
		}
		if w.dir.local(id, w.id) != nil {
			t.Resident++
			continue
		}
		if cap(t.ToPull) == 0 {
			// A short list in one allocation, not a doubling chain; a
			// long one doubles from here and never holds far more than it uses.
			t.ToPull = make([]graph.VertexID, 0, min(len(t.Cands)-i, 32))
		}
		t.ToPull = append(t.ToPull, id)
	}
}

// ---------------------------------------------------------------------------
// Seeder: the task generator of Figure 4, streaming seeds into the pipeline.

func (w *Worker) seederLoop() {
	// Streaming seeding (extension, §9): backpressure against the task store
	// so seeds do not all materialize up front. A seed is admitted only while
	// the store is at or under the level a spill cuts it back to, so seeds
	// alone fill it to at most mark + BufferFlush — under the spill threshold
	// (if that is two flushes or more): spilling is for what the executor
	// produces, and for EagerSeeding.
	mark := w.cfg.StoreMemCapacity / 2
	spawn := func(t *core.Task) {
		if !w.cfg.EagerSeeding {
			w.store.WaitBelow(mark)
		}
		w.assignID(t)
		w.trSeed.Event(trace.EvTaskSeed, t.ID)
		w.intake(t, false)
	}
	for i := int(w.seedCursor.Load()); i < len(w.localIDs); i++ {
		if !w.waitResumed() {
			return
		}
		if w.cfg.seedHold != nil && i == len(w.localIDs)-1 {
			select {
			case <-w.cfg.seedHold:
			case <-w.stopCh:
				return
			}
		}
		if _, in := w.cfg.seeds[w.localIDs[i]]; in || w.cfg.seeds == nil {
			w.algo.Seed(w.dir.local(w.localIDs[i], w.id), spawn)
		}
		w.seedCursor.Store(int64(i + 1))
	}
	w.seedsDone.Store(true)
	w.flushBatch(w.buffer.drain())
	w.reportIfIdle()
}

// ---------------------------------------------------------------------------
// Candidate retriever (Figure 2): dequeues inactive tasks from the task
// store, satisfies candidates from the RCV cache, and issues pull requests
// for the rest; tasks whose pulls are all satisfied go to the CPQ.

// Pull requests leave in batches, as tasks enter the store: when BufferFlush
// IDs are queued (dispatch), when the retriever is about to wait for what
// only a response can bring — room in the cache, a task in an empty store,
// the end of a checkpoint's quiesce — and on the heartbeat. A full CPQ is not
// such a wait: the executor has work queued and every pop wakes the retriever.
func (w *Worker) retrieverLoop() {
	for {
		if w.paused.Load() {
			w.flushPulls() // the checkpoint waits for the parked tasks' rounds
		}
		if !w.waitResumed() {
			return
		}
		// Backpressure: bound ready tasks, and the vertices parked and ready
		// tasks hold or wait for, by the cache they live in.
		w.cpq.waitBelow(w.cfg.cpqHighWater)
		w.waitCacheRoom()
		t, ok := w.store.TryPop()
		if !ok {
			// Nothing to dispatch: take in the task buffer, then block.
			w.flushPulls()
			w.flushStarved()
			if t, ok = w.store.PopWait(); !ok {
				return
			}
		}
		w.dispatch(t)
	}
}

// windowShut reports whether the CMQ window is closed: tasks are parked, and
// the vertices pinned in the cache plus those in flight fill it. The unit is
// vertices, not tasks, so the window widens for tasks that pin few or shared
// vertices and narrows for ones that pin many. With nothing parked it is
// open whatever the count, so a task whose to_pull alone exceeds the cache
// is still dispatched. Caller holds pendMu.
func (w *Worker) windowShut() bool {
	return w.pendingTasks > 0 && w.cache.Pinned()+len(w.pulls) >= w.cache.Capacity()
}

// waitCacheRoom blocks while the CMQ window is shut, after sending the pull
// requests still queued: while tasks are parked a response is on its way,
// and each one wakes the retriever.
func (w *Worker) waitCacheRoom() {
	w.pendMu.Lock()
	for w.windowShut() && !w.stopped() {
		if w.pullCount > 0 {
			w.pendMu.Unlock()
			w.flushPulls()
			w.pendMu.Lock()
			continue
		}
		w.pendCond.Wait()
	}
	w.pendMu.Unlock()
}

// ready hands a task whose candidates are all at hand to the executor.
func (w *Worker) ready(t *core.Task) {
	t.SetStatus(core.StatusReady)
	w.trRetr.Event(trace.EvTaskReady, t.ID)
	w.cpq.push(t)
}

// dispatch resolves one task's remote candidates against the cache and
// either readies it or parks it in the CMQ behind batched pull requests.
func (w *Worker) dispatch(t *core.Task) {
	if len(t.ToPull) == 0 {
		w.ready(t)
		return
	}
	// A hit's reference is held until the round completes, and so is the
	// pointer: the executor resolves the candidate from t.Pulled.
	t.Pulled = make([]*graph.Vertex, len(t.ToPull))
	missed := 0
	w.pendMu.Lock()
	for i, id := range t.ToPull {
		if t.Pulled[i], _ = w.cache.Acquire(id); t.Pulled[i] == nil {
			missed++
		}
	}
	if missed == 0 {
		w.pendMu.Unlock()
		w.ready(t)
		return
	}
	pt := &pendingTask{t: t, remaining: missed}
	var now time.Time
	for i, id := range t.ToPull {
		if t.Pulled[i] != nil {
			continue
		}
		ps, inFlight := w.pulls[id]
		if !inFlight {
			owner := w.dir.owner(id)
			if now.IsZero() {
				now = time.Now() // one reading serves every request of the dispatch
			}
			ps = &pullState{requestedAt: now, retryAt: now.Add(w.retryDelay(0)), owner: owner}
			w.pulls[id] = ps
			w.pullBatch[owner] = append(w.pullBatch[owner], id)
			w.pullCount++
		}
		ps.waiters = append(ps.waiters, pullWaiter{pt: pt, slot: i})
	}
	w.pendingTasks++
	flush := w.pullCount >= w.cfg.BufferFlush
	// pt is visible to handlePullResp once pendMu drops; read remaining now.
	parked := pt.remaining
	w.pendMu.Unlock()
	w.trRetr.Event(trace.EvCMQBatch, uint64(parked))
	if flush {
		w.flushPulls()
	}
}

// flushPulls sends the accumulated per-destination pull requests. The
// batch map and its per-owner slices are recycled between flushes (the
// owner set is bounded by the cluster size, so retained keys with
// truncated slices cost nothing), and requests are encoded into pooled
// buffers — steady-state flushing is allocation-free.
func (w *Worker) flushPulls() {
	w.pendMu.Lock()
	if w.pullCount == 0 {
		w.pendMu.Unlock()
		return
	}
	batch := w.pullBatch
	if w.pullSpare != nil {
		w.pullBatch = w.pullSpare
		w.pullSpare = nil
	} else {
		w.pullBatch = make(map[int][]graph.VertexID, len(batch))
	}
	w.pullCount = 0
	w.pendMu.Unlock()
	for owner, ids := range batch {
		if len(ids) == 0 {
			continue // recycled key from an earlier flush
		}
		w.trRetr.Event(trace.EvPullIssued, uint64(len(ids)))
		wr := wire.GetWriter(16 + 4*len(ids))
		encodePullReqInto(wr, ids)
		_ = w.ep.Send(owner, msgPullReq, wr.Bytes())
		wire.PutWriter(wr)
		batch[owner] = ids[:0]
	}
	w.pendMu.Lock()
	if w.pullSpare == nil {
		w.pullSpare = batch
	}
	w.pendMu.Unlock()
}

// handlePullResp resolves arrived vertices against CMQ waiters.
func (w *Worker) handlePullResp(payload []byte) {
	entries, err := decodePullResp(payload)
	if err != nil {
		return
	}
	var ready []*core.Task
	var now time.Time
	if w.trRetr.Active() {
		now = time.Now()
	}
	w.pendMu.Lock()
	for _, pv := range entries {
		ps, ok := w.pulls[pv.ID]
		if !ok || len(ps.waiters) == 0 {
			continue // duplicate response (e.g. a retry raced the original)
		}
		if !now.IsZero() {
			w.trRetr.Observe(trace.MetricPullRTT, now.Sub(ps.requestedAt))
		}
		delete(w.pulls, pv.ID)
		if pv.Present {
			// First waiter's reference comes from the insert; each
			// additional waiter acquires its own.
			if !w.cache.TryInsert(pv.V) {
				w.cache.ForceInsert(pv.V)
			}
			for range ps.waiters[1:] {
				w.cache.Acquire(pv.ID)
			}
		}
		for _, wt := range ps.waiters {
			if pv.Present {
				wt.pt.t.Pulled[wt.slot] = pv.V
			}
			if wt.pt.remaining--; wt.pt.remaining == 0 {
				w.pendingTasks--
				ready = append(ready, wt.pt.t)
			}
		}
	}
	w.pendCond.Broadcast()
	w.pendMu.Unlock()
	w.trRetr.Event(trace.EvPullAnswered, uint64(len(entries)))
	for _, t := range ready {
		w.ready(t)
	}
}

// retryDelay is the wait before retry number `attempts` of a pull:
// exponential from the pull retry base, capped at 16× it, with ±25% jitter so a
// lost batch does not retry as one synchronized burst. Caller holds pendMu
// (the RNG is not otherwise synchronized).
func (w *Worker) retryDelay(attempts int) time.Duration {
	d, limit := w.cfg.pullRetryBase, 16*w.cfg.pullRetryBase
	for i := 0; i < attempts && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	if half := int64(d) / 2; half > 0 {
		d = d*3/4 + time.Duration(w.retryRng.Int63n(half))
	}
	return d
}

// retryStalePulls re-issues pull requests whose responses are overdue
// (request or response lost to a crashed worker or a lossy network).
// Each retry re-resolves the vertex owner instead of trusting the
// snapshot taken at request time: after a failure + recovery the owner
// assignment is re-read, so a stale snapshot could target the wrong
// node forever. Retries back off exponentially with jitter (capped) so
// a dead owner is probed, not hammered. The re-requests are queued for the
// caller's flushPulls.
func (w *Worker) retryStalePulls() {
	w.pendMu.Lock()
	if len(w.pulls) == 0 {
		w.pendMu.Unlock()
		return // the usual heartbeat: nothing in flight, nothing to build
	}
	now := time.Now()
	retried := 0
	for id, ps := range w.pulls {
		if now.Before(ps.retryAt) {
			continue
		}
		ps.attempts++
		if owner := w.dir.owner(id); owner >= 0 {
			ps.owner = owner
		}
		ps.requestedAt = now
		ps.retryAt = now.Add(w.retryDelay(ps.attempts))
		// Retries ride the caller's flush, in the batch map it recycles.
		w.pullBatch[ps.owner] = append(w.pullBatch[ps.owner], id)
		retried++
	}
	w.pullCount += retried
	w.pendMu.Unlock()
	if retried > 0 {
		w.trRetr.Event(trace.EvPullRetry, uint64(retried))
	}
}

// ---------------------------------------------------------------------------
// Task executor (Figure 2): a pool of computing threads running update
// rounds on ready tasks.

func (w *Worker) executorLoop() {
	var cands []*graph.Vertex // this thread's resolve scratch, reused every round
	for {
		if w.cpq.len() == 0 {
			w.flushStarved() // going idle: buffered output must not wait for a heartbeat
		}
		t, ok := w.cpq.pop()
		if !ok {
			return
		}
		if w.stopped() {
			// Cancellation drain: the queue is closed and being emptied;
			// drop remaining ready tasks instead of running more rounds.
			// (On a clean termination the queue is empty by construction,
			// so this branch only fires on cancel/kill.)
			continue
		}
		cands = w.runTask(t, cands)
	}
}

// runTask executes update rounds until the task dies or needs remote
// candidates. A task whose next-round candidates are all local "directly
// enters the next round of update without any status change" (§4.2).
// cands is the calling thread's resolve scratch, returned (possibly grown)
// for its next task.
func (w *Worker) runTask(t *core.Task, cands []*graph.Vertex) []*graph.Vertex {
	for {
		t.SetStatus(core.StatusActive)
		if t.Round == 0 {
			t.Round = 1 // first update round after seeding (§4.2)
		}
		start := time.Now()
		cands = w.resolve(cands, t)
		w.algo.Update(t, cands, w)
		w.counters.AddBusy(time.Since(start))
		// Reuses the busy-time timestamps: a disabled tracer adds no clock
		// reads to the round loop.
		w.trExec.ObserveSpan(trace.MetricTaskRound, trace.EvTaskActive, start, t.ID)

		next, children := t.TakeTransition()
		if len(t.ToPull) > 0 {
			w.cache.Release(t.ToPull...)
			// A task waiting in the store must not hold an array the size
			// of its last round.
			t.ToPull, t.Pulled = t.ToPull[:0], nil
		}
		if len(children) > 0 {
			w.trExec.Event(trace.EvTaskSplit, uint64(len(children)))
		}
		for _, c := range children {
			w.assignID(c)
			c.SetStatus(core.StatusInactive)
			w.intake(c, false)
		}
		if next == nil {
			t.SetStatus(core.StatusDead)
			w.taskDead(t)
			return cands
		}
		t.Advance(next)
		w.computeToPull(t)
		if len(t.ToPull) > 0 {
			t.SetStatus(core.StatusInactive)
			w.trExec.Event(trace.EvTaskInactive, t.ID)
			w.bufferTask(t)
			return cands
		}
		if w.stopped() {
			return cands
		}
	}
}

func (w *Worker) taskDead(t *core.Task) {
	w.counters.TaskDone()
	w.trExec.Event(trace.EvTaskDead, t.ID)
	w.activity.Add(1)
	w.inflight.Add(-1)
	w.reportIfIdle()
	if w.paused.Load() {
		w.wake()
	}
}

// resolve maps t's candidate IDs to vertex objects: what this worker reads
// without a pull (its partition, resident lists) through the directory, the
// remote candidates from the pointers the retriever left in t.Pulled (nil
// where the owner had no such vertex); unknown IDs yield nil. t.ToPull is
// the remote candidates in candidate order, each once, so one cursor walks
// it beside t.Cands. The objects overwrite dst, the caller's scratch, which
// is returned resized.
func (w *Worker) resolve(dst []*graph.Vertex, t *core.Task) []*graph.Vertex {
	dst = slices.Grow(dst[:0], len(t.Cands))[:len(t.Cands)]
	next := 0
	for i, id := range t.Cands {
		v := w.dir.local(id, w.id)
		if v == nil && next < len(t.ToPull) && t.ToPull[next] == id {
			v, next = t.Pulled[next], next+1
		} else if v == nil && len(t.ToPull) > 0 {
			// A remote candidate listed twice (ToPull holds it once, and its
			// reference keeps it cached), or an ID nobody owns.
			v, _ = w.cache.Peek(id)
		}
		dst[i] = v
	}
	return dst
}

// ---------------------------------------------------------------------------
// Communication loop: the request listener of Figure 4 plus all control
// message handling.

func (w *Worker) commLoop() {
	for {
		m, ok := w.ep.Recv()
		if !ok || w.killed.Load() {
			return
		}
		switch m.Type {
		case msgPullReq:
			select {
			case w.pullServe <- pullWork{from: m.From, payload: m.Payload}:
			case <-w.stopCh:
				return
			}
		case msgPullResp:
			w.handlePullResp(m.Payload)
		case msgMigrate:
			w.handleMigrate(m.Payload)
		case msgTasks:
			w.handleTasks(m.Payload)
		case msgNoTask:
			w.trSteal.Event(trace.EvStealNoTask, 0)
			w.lastStealReq.Store(0)
			w.stealBackoff.Store(8)
		case msgAggGlobal:
			w.handleAggGlobal(m.Payload)
		case msgCheckpointReq:
			if epoch, err := decodeEpoch(m.Payload); err == nil {
				// Tracked in wg so job teardown can prove no checkpoint
				// goroutine outlives the job (leak-checked reruns).
				w.wg.Add(1)
				go func() {
					defer w.wg.Done()
					w.checkpoint(epoch)
				}()
			}
		case msgProbe:
			if wave, err := decodeEpoch(m.Payload); err == nil {
				w.wave.Store(wave)
				w.sendProgress()
			}
		case msgStop:
			w.stop()
			return
		}
	}
}

// pullServeLoop drains the pull-serve queue; several of these run per
// worker so responses to different requesters are encoded and sent
// concurrently.
func (w *Worker) pullServeLoop() {
	var sc serveScratch
	for {
		select {
		case <-w.stopCh:
			return
		case req := <-w.pullServe:
			w.servePull(req.from, req.payload, &sc)
		}
	}
}

// servePull answers a pull request from another worker with the requested
// vertices this worker holds (a peer never asks for a resident one). The
// response is encoded into a pooled buffer: Send copies the payload, so the
// buffer goes straight back to the pool. sc is the calling goroutine's
// scratch.
func (w *Worker) servePull(from int, payload []byte, sc *serveScratch) {
	ids, err := decodePullReq(payload)
	if err != nil {
		return
	}
	sc.found, sc.missing = sc.found[:0], sc.missing[:0]
	for _, id := range ids {
		if v := w.dir.local(id, w.id); v != nil {
			sc.found = append(sc.found, v)
		} else {
			sc.missing = append(sc.missing, id)
		}
	}
	wr := wire.GetWriter(64 + 32*len(ids))
	encodePullRespInto(wr, sc.found, sc.missing)
	_ = w.ep.Send(from, msgPullResp, wr.Bytes())
	wire.PutWriter(wr)
}

// handleMigrate serves a MIGRATE order from the master: steal up to Tnum
// eligible tasks from the task store and ship them to the thief.
func (w *Worker) handleMigrate(payload []byte) {
	thief, tnum, err := decodeMigrate(payload)
	if err != nil {
		return
	}
	tasks := w.store.Steal(tnum, w.stealPolicy.Eligible)
	if len(tasks) == 0 {
		w.trSteal.Event(trace.EvStealNoTask, 0)
		_ = w.ep.Send(thief, msgNoTask, nil)
		return
	}
	w.trSteal.Event(trace.EvStealMigrate, uint64(len(tasks)))
	wr := wire.GetWriter(256 * len(tasks))
	encodeTasksInto(wr, tasks, w.algo)
	w.tasksSent.Add(int64(len(tasks)))
	w.activity.Add(int64(len(tasks)))
	w.inflight.Add(-int64(len(tasks)))
	w.counters.TasksStolen(len(tasks))
	_ = w.ep.Send(thief, msgTasks, wr.Bytes())
	wire.PutWriter(wr)
	w.reportIfIdle()
}

// handleTasks admits a migration batch.
func (w *Worker) handleTasks(payload []byte) {
	tasks, err := decodeTasks(payload, w.algo)
	if err != nil {
		return
	}
	if at := w.lastStealReq.Swap(0); at != 0 && w.trSteal.Active() {
		w.trSteal.Observe(trace.MetricMigration, time.Duration(time.Now().UnixNano()-at))
	}
	for _, t := range tasks {
		w.intake(t, true)
	}
	w.flushStarved() // a steal batch arrives at an idle pipeline
}

func (w *Worker) handleAggGlobal(payload []byte) {
	if w.agg == nil {
		return
	}
	r := wire.NewReader(payload)
	v := w.agg.Decode(r)
	w.aggMu.Lock()
	w.aggGlobal = v
	w.aggMu.Unlock()
}

// ---------------------------------------------------------------------------
// Progress reporting, idle detection and steal requests.

func (w *Worker) progressLoop() {
	ticker := time.NewTicker(w.cfg.progressInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ticker.C:
		}
		// Flush tasks and pull requests stranded below batch thresholds.
		w.flushBatch(w.buffer.drain())
		w.retryStalePulls()
		w.flushPulls()
		w.observeMemory()

		w.sendProgress()

		if w.cfg.Stealing && w.seedsDone.Load() && w.inflight.Load() == 0 {
			if w.stealBackoff.Load() > 0 {
				w.stealBackoff.Add(-1)
			} else {
				if w.trSteal.Active() {
					w.trSteal.Event(trace.EvStealReq, 0)
					w.lastStealReq.CompareAndSwap(0, time.Now().UnixNano())
				}
				_ = w.ep.Send(w.masterNode, msgStealReq, nil)
			}
		}
	}
}

// sendProgress reports to the master: on every heartbeat, the moment the
// worker becomes idle, and in answer to a termination probe.
func (w *Worker) sendProgress() {
	w.repMu.Lock()
	defer w.repMu.Unlock()
	if w.stopped() {
		return
	}
	// The wave is read first: a report echoing a probe was built after it.
	rep := &progressReport{Worker: w.id, Wave: w.wave.Load()}
	for {
		// Seqlock-style: re-read if activity moved under the counter reads.
		rep.Activity = w.activity.Load()
		rep.Inflight = w.inflight.Load()
		rep.TasksSent = w.tasksSent.Load()
		rep.TasksRecv = w.tasksRecv.Load()
		rep.SeedsDone = w.seedsDone.Load()
		if w.activity.Load() == rep.Activity {
			break
		}
	}
	rep.StoreSize = int64(w.store.Size())
	rep.Results = int64(w.resultCount())
	var aggW *wire.Writer
	if w.agg != nil {
		aggW = wire.GetWriter(32)
		w.aggMu.Lock()
		w.agg.Encode(aggW, w.aggPartial)
		w.aggMu.Unlock()
		rep.AggSet = true
		rep.AggBytes = aggW.Bytes()
	}
	pw := wire.GetWriter(64 + len(rep.AggBytes))
	encodeProgressInto(pw, rep)
	_ = w.ep.Send(w.masterNode, msgProgress, pw.Bytes())
	wire.PutWriter(pw)
	if aggW != nil {
		wire.PutWriter(aggW)
	}
}

// reportIfIdle pushes a report the moment the worker runs out of work.
func (w *Worker) reportIfIdle() {
	if w.seedsDone.Load() && w.inflight.Load() == 0 {
		w.sendProgress()
	}
}

// observeMemory refreshes this worker's live-memory estimate: graph
// partition and the resident lists of other partitions + in-memory task
// store + RCV cache. Job-owned bytes (store + cache, not the shared resident
// graph) are also charged against the job's memory budget when one is set;
// overflowing it aborts the job instead of letting it starve co-resident
// jobs.
func (w *Worker) observeMemory() {
	owned := w.store.MemBytes() + w.cache.Bytes()
	w.counters.ObserveLive(w.graphFoot + owned)
	if w.cfg.MemBudget == nil {
		return
	}
	delta := owned - w.budgetCharged
	w.budgetCharged = owned
	if delta < 0 {
		w.cfg.MemBudget.Release(-delta)
		return
	}
	if err := w.cfg.MemBudget.Charge(delta); err != nil && w.oomFn != nil {
		w.oomFn(fmt.Errorf("worker %d: %w", w.id, err))
	}
}

func (w *Worker) resultCount() int {
	w.resMu.Lock()
	defer w.resMu.Unlock()
	return len(w.results)
}

// takeResults returns the output records (job collection).
func (w *Worker) takeResults() []string {
	w.resMu.Lock()
	defer w.resMu.Unlock()
	return append([]string(nil), w.results...)
}

// ---------------------------------------------------------------------------
// core.Env implementation (what Seed/Update can reach).

// WorkerID implements core.Env.
func (w *Worker) WorkerID() int { return w.id }

// NumWorkers implements core.Env.
func (w *Worker) NumWorkers() int { return w.cfg.Workers }

// Emit implements core.Env.
func (w *Worker) Emit(record string) {
	w.resMu.Lock()
	w.results = append(w.results, record)
	w.resMu.Unlock()
	w.counters.EmitResult()
}

// AggUpdate implements core.Env.
func (w *Worker) AggUpdate(v any) {
	if w.agg == nil {
		return
	}
	w.aggMu.Lock()
	w.aggPartial = w.agg.Add(w.aggPartial, v)
	w.aggMu.Unlock()
}

// AggGlobal implements core.Env.
func (w *Worker) AggGlobal() any {
	if w.agg == nil {
		return nil
	}
	w.aggMu.Lock()
	defer w.aggMu.Unlock()
	// The freshest view a worker has is its own partial merged with the
	// last broadcast global.
	return w.agg.Merge(w.aggGlobal, w.aggPartial)
}

// LocalVertex implements core.Env.
func (w *Worker) LocalVertex(id graph.VertexID) *graph.Vertex {
	return w.dir.local(id, w.id)
}
