package cluster

import (
	"fmt"
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

// pullState tracks one in-flight vertex pull: the tasks waiting for it, and
// when its request left (the RTT metric, stamped only while tracing).
type pullState struct {
	waiters     []pullWaiter
	requestedAt time.Time
}

// Worker is one slave node (§5.1): it owns a graph partition (vertex
// table), runs the task pipeline of Figure 2, serves pull requests from
// other workers (request listener) and reports progress to the master.
type Worker struct {
	id   int
	cfg  Config
	algo core.Algorithm
	agg  core.Aggregator // nil when the algorithm has no aggregator
	ep   *stream

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

	// Progress counters. Termination detection (DESIGN.md) leans on the order
	// they move in: inflight is up before a task is admitted and down last
	// when it dies or leaves, activity bumps in between, a migrated batch is
	// in tasksSent before it is sent and in tasksRecv once it is in inflight.
	// sentTo and recvFrom split the two by peer, for the checkpoint cut.
	inflight  atomic.Int64 // alive tasks owned by this worker, and seed ranges taken
	activity  atomic.Int64 // bumps on intake/death/migration
	tasksSent atomic.Int64
	tasksRecv atomic.Int64
	sentTo    []atomic.Int64
	recvFrom  []atomic.Int64
	// seedCursor is the first vertex of the seed scan no range has taken:
	// the scan is done once it reaches the end (seedsDone).
	seedCursor atomic.Int64
	// cutMu makes a checkpoint's cut atomic with what moves tasks beside the
	// paused pipeline: a seed range's take with the cursor, and a migration
	// batch shipped or taken in with its counts.
	cutMu sync.Mutex
	// wave is the newest termination probe seen, echoed by every report;
	// repMu keeps reports leaving in the order they were built.
	wave  atomic.Int64
	repMu sync.Mutex

	// Aggregator state. A core.SumInt64Aggregator's partial is the typed
	// aggSum, so AggUpdate boxes nothing; any other aggregator's is
	// aggPartial. partialAgg reads whichever it is.
	aggMu      sync.Mutex
	aggPartial any
	aggGlobal  any
	sumAgg     bool
	aggSum     atomic.Int64

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
	// ckptEpoch is the newest checkpoint epoch requested; ckptKick wakes the
	// one checkpointer, made with it at the first request (requestCheckpoint).
	ckptEpoch atomic.Int64
	ckptKick  chan struct{}
	// ckptFloor is the oldest committed epoch the master's last request
	// named: no rollback reads this worker's snapshots below it.
	ckptFloor atomic.Int64
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

	// Memory budget (JobOptions.MemBudgetBytes): budgetCharged is what this
	// worker currently has charged (store + cache bytes; see chargeBudget).
	budgetCharged atomic.Int64
	// failFn fails the job with err — a charge that overflows the budget,
	// or a task-store spill block that cannot be read back. The host sets
	// it, and the error it fails the job with names this worker.
	failFn func(error)

	// Trace handles, one per pipeline component (zero handles drop
	// everything when Config.Tracer is nil).
	trSeed  trace.Handle
	trRetr  trace.Handle
	trExec  trace.Handle
	trSteal trace.Handle
	trCkpt  trace.Handle
	// lastStealReq is the tick that sent the latest steal REQ while no reply
	// came yet (UnixNano; 0 = none): the thief-side migration latency, and a
	// checkpoint waits for the reply, whose batch belongs in its cut.
	lastStealReq atomic.Int64
	// clock is the newest tick's reading (UnixNano; pipeline start's before it).
	clock atomic.Int64
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
		ep:         newStream(ep, cfg.Workers),
		dir:        dir,
		localIDs:   local.ids,
		graphFoot:  local.footprint,
		counters:   counters,
		stopCh:     make(chan struct{}),
		masterNode: cfg.Workers,
		pulls:      make(map[graph.VertexID]*pullState),
		pullBatch:  make(map[int][]graph.VertexID),
		snapshots:  snapshots,
		sentTo:     make([]atomic.Int64, cfg.Workers),
		recvFrom:   make([]atomic.Int64, cfg.Workers),
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
		_, w.sumAgg = w.agg.(core.SumInt64Aggregator)
		w.aggPartial = w.agg.Zero()
		w.aggGlobal = w.agg.Zero()
	}

	// Every spiller makes a directory of its own under SpillDir, so jobs,
	// workers and a killed worker's replacement never share block files.
	sp, err := spill.New(cfg.SpillDir, counters)
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
	w.clock.Store(time.Now().UnixNano())
	loops := []func(){w.commLoop, w.retrieverLoop, w.progressLoop}
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
	w.reportIfIdle() // a worker with nothing to seed is idle from the start
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
// routes it (admit). migrated marks tasks received via task stealing.
func (w *Worker) intake(t *core.Task, migrated bool) {
	w.computeToPull(t)
	w.admit(t, migrated)
}

// admit counts a task whose to_pull is computed as alive and routes it. A
// task waits in the store only while it waits for data (§4.2): one with
// nothing to pull goes straight to the CPQ — unless the steal policy would
// migrate it, since stealing draws only from the store. Any other task is
// buffered toward the store.
func (w *Worker) admit(t *core.Task, migrated bool) {
	w.inflight.Add(1)
	w.activity.Add(1)
	if migrated {
		w.tasksRecv.Add(1)
	}
	if w.runsNow(t) {
		w.ready(t)
		return
	}
	w.bufferTask(t)
}

// runsNow reports whether a task with its to_pull computed skips the store:
// it has nothing to pull and the steal policy would keep it here.
func (w *Worker) runsNow(t *core.Task) bool {
	return len(t.ToPull) == 0 && !w.stealPolicy.Eligible(t)
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
	w.chargeBudget()
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
				if err := w.store.Err(); err != nil && w.failFn != nil {
					w.failFn(err)
				}
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
	for i, id := range t.ToPull {
		if t.Pulled[i] != nil {
			continue
		}
		ps, inFlight := w.pulls[id]
		if !inFlight {
			owner := w.dir.owner(id)
			ps = &pullState{}
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
	if w.trRetr.Active() {
		now := time.Now() // the round trip starts as the request leaves
		for _, ids := range batch {
			for _, id := range ids {
				w.pulls[id].requestedAt = now
			}
		}
	}
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
			continue // not asked for
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
	w.chargeBudget()
	w.trRetr.Event(trace.EvPullAnswered, uint64(len(entries)))
	for _, t := range ready {
		w.ready(t)
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
		if w.seedRange() {
			continue
		}
		t, ok := w.cpq.pop()
		if !ok {
			return
		}
		if t == nil {
			continue // kicked: a range may be takeable now
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
		if t.Round == 0 {
			t.Round = 1 // first update round after seeding (§4.2)
		}
		start := metrics.BusyClock()
		cands = w.resolve(cands, t)
		w.algo.Update(t, cands, w)
		// One clock read ends the round for the busy time and the tracer.
		d := metrics.BusyClock() - start
		w.counters.AddBusy(d)
		w.trExec.ObserveSpan(trace.MetricTaskRound, trace.EvTaskActive, d, t.ID)

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
			w.intake(c, false)
		}
		if next == nil {
			w.taskDead(t)
			return cands
		}
		t.Advance(next)
		w.computeToPull(t)
		if len(t.ToPull) > 0 {
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
	w.retire()
}

// retire ends one alive unit, a task or a seed range: activity bumps before
// inflight falls, and a worker left idle reports at once.
func (w *Worker) retire() {
	w.activity.Add(1)
	w.inflight.Add(-1)
	w.reportIfIdle()
	if w.paused.Load() {
		w.wake()
	}
}

// seedRange is the task generator of Figure 4, run by an executor before it
// pops the CPQ: it seeds the next BufferFlush vertices of the scan (those in
// JobOptions.Seeds, when set) and reports whether it took them. It takes a
// range only while the pipeline runs, the CPQ is under its high water and —
// unless seeding eagerly — the alive tasks are at most half the store's spill
// threshold. The range is alive from its take, under cutMu with the cursor,
// until its last child is admitted, so a cut (DESIGN §8, "Seed ranges") holds
// it whole or not at all.
func (w *Worker) seedRange() bool {
	if w.seedsDone() || w.paused.Load() || w.stopped() || w.cpq.len() >= w.cfg.cpqHighWater ||
		(!w.cfg.eagerSeeding && w.inflight.Load() > int64(w.cfg.StoreMemCapacity/2)) {
		return false
	}
	w.cutMu.Lock()
	lo := int(w.seedCursor.Load())
	hi := min(lo+w.cfg.BufferFlush, len(w.localIDs))
	if lo == hi || (w.cfg.seedHold != nil && w.cfg.seedHold(w.id, hi == len(w.localIDs))) {
		w.cutMu.Unlock()
		return false
	}
	w.inflight.Add(1)
	w.activity.Add(1)
	w.seedCursor.Store(int64(hi))
	w.cutMu.Unlock()

	start, spawn := metrics.BusyClock(), w.spawn // one method value, not one a vertex
	for _, id := range w.localIDs[lo:hi] {
		if _, in := w.cfg.seeds[id]; in || w.cfg.seeds == nil {
			w.algo.Seed(w.dir.local(id, w.id), spawn)
		}
	}
	w.counters.AddBusy(metrics.BusyClock() - start)
	w.retire()
	return true
}

// spawn admits a seed task.
func (w *Worker) spawn(t *core.Task) {
	w.assignID(t)
	w.trSeed.Event(trace.EvTaskSeed, t.ID)
	w.intake(t, false)
}

// seedsDone: every range of the seed scan is taken.
func (w *Worker) seedsDone() bool {
	return w.seedCursor.Load() == int64(len(w.localIDs))
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
		if !ok || w.killed.Load() || !w.handle(m) {
			return
		}
	}
}

// handle applies one message from a peer or the master and reports whether
// the worker still serves: false once it stopped.
func (w *Worker) handle(m transport.Message) bool {
	switch m.Type {
	case msgPullReq:
		select {
		case w.pullServe <- pullWork{from: m.From, payload: m.Payload}:
		case <-w.stopCh:
		}
	case msgPullResp:
		w.handlePullResp(m.Payload)
	case msgMigrate:
		w.handleMigrate(m.Payload)
	case msgTasks:
		w.handleTasks(m.From, m.Payload)
	case msgNoTask:
		w.trSteal.Event(trace.EvStealNoTask, 0)
		w.stealBackoff.Store(8)
		w.stealAnswered()
	case msgAggGlobal:
		w.handleAggGlobal(m.Payload)
	case msgCheckpointReq:
		if epoch, prev, err := decodeCheckpointReq(m.Payload); err == nil {
			w.ckptFloor.Store(prev)
			w.requestCheckpoint(epoch)
		}
	case msgProbe:
		if wave, err := decodeEpoch(m.Payload); err == nil {
			// A delayed older probe never lowers the echo: handle is the
			// wave's one writer, so a max is a load and a store.
			if wave > w.wave.Load() {
				w.wave.Store(wave)
			}
			w.sendProgress()
		}
	case msgStop:
		w.stop()
	}
	return !w.stopped()
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
	if err != nil || thief < 0 || thief >= w.cfg.Workers {
		return
	}
	w.cutMu.Lock()
	defer w.cutMu.Unlock()
	tasks := w.store.Steal(tnum, w.stealPolicy.Eligible)
	if len(tasks) == 0 {
		w.trSteal.Event(trace.EvStealNoTask, 0)
		_ = w.ep.Send(thief, msgNoTask, nil)
		return
	}
	w.trSteal.Event(trace.EvStealMigrate, uint64(len(tasks)))
	wr := wire.GetWriter(256 * len(tasks))
	core.EncodeTasks(wr, tasks, w.algo)
	w.tasksSent.Add(int64(len(tasks)))
	w.sentTo[thief].Add(int64(len(tasks)))
	w.activity.Add(int64(len(tasks)))
	w.inflight.Add(-int64(len(tasks)))
	w.counters.TasksStolen(len(tasks))
	_ = w.ep.Send(thief, msgTasks, wr.Bytes())
	wire.PutWriter(wr)
	w.reportIfIdle()
}

// handleTasks admits a migration batch from worker from.
func (w *Worker) handleTasks(from int, payload []byte) {
	tasks, err := core.DecodeTasks(payload, w.algo)
	if err != nil || from < 0 || from >= w.cfg.Workers {
		return
	}
	if at := w.lastStealReq.Load(); at != 0 && w.trSteal.Active() {
		w.trSteal.Observe(trace.MetricMigration, time.Duration(time.Now().UnixNano()-at))
	}
	w.cutMu.Lock()
	for _, t := range tasks {
		w.intake(t, true)
	}
	w.recvFrom[from].Add(int64(len(tasks)))
	w.cutMu.Unlock()
	w.stealAnswered()
	w.flushStarved() // a steal batch arrives at an idle pipeline
}

// stealAnswered records the reply to the steal REQ — a batch or msgNoTask
// — for a checkpoint waiting for it.
func (w *Worker) stealAnswered() {
	w.lastStealReq.Store(0)
	if w.paused.Load() {
		w.wake()
	}
}

// stealReplyHeartbeats bounds stealPending: a steal REQ is unanswered at the
// newest tick, for fewer heartbeats than it. Past that the reply is taken as
// lost; should a batch still come, the master's cut check refuses the epoch
// it crosses.
const stealReplyHeartbeats = 30

func (w *Worker) stealPending() bool {
	at := w.lastStealReq.Load()
	return at != 0 && w.clock.Load()-at < int64(stealReplyHeartbeats*w.cfg.progressInterval)
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

// progressLoop feeds the heartbeat's readings to tick.
func (w *Worker) progressLoop() {
	ticker := time.NewTicker(w.cfg.progressInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case now := <-ticker.C:
			w.tick(now)
		}
	}
}

// tick is one heartbeat, reading now on the protocol's clock: it ticks the
// stream, flushes what sits below batch thresholds, samples live memory
// (partition and resident lists, store, cache), reports, wakes an executor
// while seeds remain and, idle with no steal reply due, steals.
func (w *Worker) tick(now time.Time) {
	w.clock.Store(now.UnixNano())
	if n := w.ep.tick(); n > 0 {
		w.trRetr.Event(trace.EvRetransmit, uint64(n))
	}
	w.flushBatch(w.buffer.drain())
	w.flushPulls()
	w.counters.ObserveLive(w.graphFoot + w.store.MemBytes() + w.cache.Bytes())
	if w.paused.Load() {
		w.wake() // a quiesce sees its deadline or a steal reply's wait expire
	}

	w.sendProgress()

	if !w.seedsDone() && w.cpq.len() == 0 {
		w.cpq.kick() // an executor waiting on the CPQ looks for a range again
	}
	if w.cfg.Stealing && w.seedsDone() && w.inflight.Load() == 0 {
		if w.stealBackoff.Load() > 0 {
			w.stealBackoff.Add(-1)
		} else if !w.stealPending() {
			w.trSteal.Event(trace.EvStealReq, 0)
			w.lastStealReq.Store(now.UnixNano())
			_ = w.ep.Send(w.masterNode, msgStealReq, nil)
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
	// The master may end the job on this report: its state is charged first.
	w.chargeBudget()
	// The wave is read first: a report echoing a probe was built after it.
	rep := &progressReport{Worker: w.id, Wave: w.wave.Load()}
	for {
		// Seqlock-style: re-read if activity moved under the counter reads.
		rep.Activity = w.activity.Load()
		rep.Inflight = w.inflight.Load()
		rep.TasksSent = w.tasksSent.Load()
		rep.TasksRecv = w.tasksRecv.Load()
		rep.SeedsDone = w.seedsDone()
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
		w.agg.Encode(aggW, w.partialAgg())
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
	if w.seedsDone() && w.inflight.Load() == 0 {
		w.sendProgress()
	}
}

// chargeBudget brings this worker's charge against the job's memory budget,
// when one is set, to its job-owned bytes: the in-memory task store and the
// RCV cache, not the shared resident graph. Overflowing the budget aborts
// the job instead of letting it starve co-resident jobs. It runs where those
// bytes grow — after a store insert and after a pull response's cache
// inserts — and before every progress report, so a job ends only on a
// charged state however short it is. Callers race; each swaps in what it
// saw, so the charges sum to the last one's. Without a budget it is one nil
// check.
func (w *Worker) chargeBudget() {
	if w.cfg.memBudget == nil {
		return
	}
	owned := w.store.MemBytes() + w.cache.Bytes()
	delta := owned - w.budgetCharged.Swap(owned)
	if delta < 0 {
		w.cfg.memBudget.Release(-delta)
		return
	}
	if err := w.cfg.memBudget.Charge(delta); err != nil && w.failFn != nil {
		w.failFn(fmt.Errorf("%w: %w", ErrCancelled, err))
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
	if w.sumAgg {
		w.aggSum.Add(v.(int64))
		return
	}
	w.aggMu.Lock()
	w.aggPartial = w.agg.Add(w.aggPartial, v)
	w.aggMu.Unlock()
}

// partialAgg is this worker's partial aggregate (caller holds aggMu).
func (w *Worker) partialAgg() any {
	if w.sumAgg {
		return w.aggSum.Load()
	}
	return w.aggPartial
}

// setPartialAgg replaces the partial aggregate (caller holds aggMu, or
// owns the worker before it runs).
func (w *Worker) setPartialAgg(v any) {
	if w.sumAgg {
		w.aggSum.Store(v.(int64))
		return
	}
	w.aggPartial = v
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
	return w.agg.Merge(w.aggGlobal, w.partialAgg())
}

// LocalVertex implements core.Env.
func (w *Worker) LocalVertex(id graph.VertexID) *graph.Vertex {
	return w.dir.local(id, w.id)
}

// External implements core.Env.
func (w *Worker) External(id graph.VertexID) graph.VertexID { return w.dir.g.External(id) }
