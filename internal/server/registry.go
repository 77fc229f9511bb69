package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/jobspec"
	"gminer/internal/metrics"
	"gminer/internal/qos"
	"gminer/internal/trace"
)

// Job states. A job moves queued → running → {done, failed, cancelled,
// preempted}; a queued job may jump straight to cancelled (DELETE) or
// shed (load shedding, expired deadline). A cache-served job is born done.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
	// StatePreempted marks a job the QoS layer stopped at a round boundary
	// because it ran past its compute budget or deadline. Distinct from
	// cancelled so clients can tell "operator/user stopped it" from "it
	// cost too much".
	StatePreempted = "preempted"
	// StateShed marks queued work the admission controller dropped —
	// cheapest-to-recompute first — to absorb queue pressure, or whose
	// deadline expired before a slot freed.
	StateShed = "shed"
	// StateStanding marks a standing query whose baseline finished: the
	// job is parked holding its match set and emits a delta every graph
	// epoch until cancelled. Not terminal — DELETE ends it.
	StateStanding = "standing"
)

// Admission and lookup errors, mapped onto HTTP statuses by the handlers.
var (
	ErrQueueFull   = errors.New("server: admission queue full")         // 429
	ErrDraining    = errors.New("server: draining, not accepting jobs") // 503
	ErrDuplicateID = errors.New("server: job id already in use")        // 409
	ErrUnknownJob  = errors.New("server: no such job")                  // 404
	// ErrEpochMismatch rejects a spec pinned to a graph epoch the resident
	// graph has moved past (optimistic concurrency for read-your-graph
	// clients).
	ErrEpochMismatch = errors.New("server: graph epoch moved past the spec's pin") // 409
	// ErrNotDynamic rejects standing queries (and mutations) on a daemon
	// whose session was not started with -dynamic.
	ErrNotDynamic = errors.New("server: resident graph is not dynamic") // 501
)

// Config tunes the admission controller, QoS layer and job retention.
type Config struct {
	// MaxConcurrentJobs bounds how many jobs mine simultaneously on the
	// warm cluster. Default 2.
	MaxConcurrentJobs int
	// MaxQueueDepth bounds the admission queue. A submit beyond it either
	// sheds the cheapest-to-recompute queued job to make room, or — when
	// the incoming job is itself the cheapest — gets HTTP 429 with a
	// Retry-After hint. Default 8.
	MaxQueueDepth int
	// DefaultMemBudgetBytes is the per-job memory budget applied when a
	// request does not set its own. 0 means unlimited.
	DefaultMemBudgetBytes int64
	// DefaultBudgetSeconds is the per-job compute budget (busy
	// thread-seconds summed over workers) applied when a request does not
	// set budget_seconds. 0 means unlimited.
	DefaultBudgetSeconds float64
	// ResultCacheEntries bounds the serving result cache (finished record
	// sets keyed by graph fingerprint + normalized spec). 0 means the
	// default 256; negative disables caching.
	ResultCacheEntries int
	// MaxRetainedJobs bounds how many finished jobs (and their result
	// records) stay queryable; the oldest are evicted first. Default 64.
	MaxRetainedJobs int
	// DrainTimeout bounds how long Shutdown waits for running jobs to
	// finish before cancelling them. Default 30s.
	DrainTimeout time.Duration
}

// retryAfter is the hint a 429 carries: a queue slot is worth asking for
// again a second later.
const retryAfter = time.Second

func (c Config) defaults() Config {
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 8
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// job is one registry entry through its whole lifecycle. While it runs it
// holds the engine's handles (cj, cjAtomic, tracer); once reaped it holds
// its Result and nothing of the engine, so what a retained job costs is its
// records and counters, not its workers or its epoch's graph views.
type job struct {
	id        string
	req       JobRequest
	state     string
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	tracer    *trace.Tracer // while running
	// built is the algorithm submit's validation constructed, at graph epoch
	// builtEpoch: the pump launches it as is unless the epoch moved while the
	// job waited. Nil once taken.
	built      core.Algorithm
	builtEpoch int64
	cj         *cluster.Job                // while running (guarded by registry.mu)
	cjAtomic   atomic.Pointer[cluster.Job] // same handle, for the lock-free round hook
	result     *cluster.Result             // non-nil once reaped

	// QoS bookkeeping. tenant and priority are the normalized hints;
	// deadline/budget the effective limits (zero means none); estimate the
	// meter's price at admission; queueWait the recorded time from submit
	// to leaving the queue; costSeconds the measured compute spend once
	// terminal; cached marks a job answered from the result cache.
	tenant      string
	priority    int
	deadline    time.Time
	budget      float64
	estimate    float64
	queueWait   time.Duration
	costSeconds float64
	cached      bool

	// Standing-query state (guarded by registry.mu). epoch is the graph
	// epoch the job computed against (stamped at dispatch; rolls forward
	// with every delta round for standing jobs). matchSet is the sorted
	// accumulated record set, aggregate the latest aggregate value, deltas
	// the full per-epoch history the /deltas stream replays, and notify is
	// closed-and-replaced whenever deltas grows or the state changes so
	// streamers wake without polling.
	epoch     int64
	baseEpoch int64
	matchSet  []string
	aggregate any
	deltas    []DeltaDoc
	notify    chan struct{}
	// fallbackLogged: this job's first fallback round has been logged.
	fallbackLogged bool
}

// tenantWait accumulates one tenant's queue-wait observations for the
// gminer_job_queue_wait_seconds summary.
type tenantWait struct {
	sum   float64
	count int64
}

// registry is the job table plus the admission controller: a bounded
// weighted-fair queue across tenants feeding at most MaxConcurrentJobs
// session launches, a cost meter pricing admission, and a result cache
// short-circuiting repeat queries.
type registry struct {
	sess Cluster
	cfg  Config

	meter *qos.Meter
	cache *qos.ResultCache[*cluster.Result] // nil when caching is disabled
	fp    uint64                            // session fingerprint, the cache key prefix

	mu       sync.Mutex
	cond     *sync.Cond // signalled whenever running drops or states settle
	jobs     map[string]*job
	order    []string // submission order, for List and retention eviction
	queue    *qos.FairQueue
	waits    map[string]*tenantWait
	running  int
	seq      uint64
	draining bool

	// standingRounds counts delta rounds completed by the arm that served
	// them (roundIncremental, roundFull, roundFallback), for /metrics.
	standingRounds map[string]int64
	// finished counts terminal transitions by state since start, for
	// gminer_jobs_finished_total; eviction does not take them back.
	finished map[string]int64
	// residentLists and residentBytes are the resident set the last job
	// reaped off G⁺ ran with (cluster.Result), for /metrics; 0 until one has.
	residentLists int
	residentBytes int64
}

func newRegistry(sess Cluster, cfg Config) *registry {
	r := &registry{
		sess:  sess,
		cfg:   cfg.defaults(),
		meter: qos.NewMeter(),
		fp:    sess.Fingerprint(),
		jobs:  make(map[string]*job),
		queue: qos.NewFairQueue(),
		waits: make(map[string]*tenantWait),

		standingRounds: make(map[string]int64),
		finished:       make(map[string]int64),
	}
	if entries := cfg.ResultCacheEntries; entries >= 0 {
		if entries == 0 {
			entries = 256
		}
		r.cache = qos.NewResultCache[*cluster.Result](entries)
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// cacheKey is the identity of req's workload on the resident graph AT ITS
// CURRENT EPOCH. The fingerprint was frozen at registry construction (it
// identifies the graph as loaded); the live epoch rides in its own field,
// so every mutation batch implicitly retires all previously cached
// results without a scan.
func (r *registry) cacheKey(req JobRequest) qos.CacheKey {
	return r.cacheKeyAt(req, r.sess.GraphEpoch())
}

// cacheKeyAt pins the key to a specific epoch. The reaper uses the epoch
// the job actually computed against — a mutation can land between the
// job's last round and the reaper folding its result in, and the result
// must not be filed under the newer epoch.
func (r *registry) cacheKeyAt(req JobRequest, epoch int64) qos.CacheKey {
	return qos.CacheKey{Fingerprint: r.fp, Epoch: epoch, Spec: req.Spec.CacheKey()}
}

// invalidateCache drops every cached result. Must be called whenever the
// resident graph is replaced or mutated (the fingerprint+epoch in the key
// already isolates graphs and epochs, but invalidating releases the dead
// entries' memory at once).
func (r *registry) invalidateCache() { r.cache.Invalidate() }

// submit admits one job request: validates the spec against the resident
// graph, serves it from the result cache when possible, otherwise
// enqueues into the weighted-fair queue and pumps the scheduler. The
// returned job is a snapshot-safe pointer (fields guarded by r.mu).
func (r *registry) submit(req JobRequest) (*job, error) {
	// Validate buildability up front so a spec the resident graph cannot
	// serve (e.g. gm on an unlabeled graph) fails the submit with 400
	// instead of a queued job that dies later. Under the graph-read guard:
	// a mutation batch may be rewriting adjacency right now.
	var built core.Algorithm
	var builtEpoch int64
	var buildErr error
	r.sess.WithGraphRead(func() {
		built, buildErr = jobspec.Build(r.sess.Graph(), req.Spec)
		builtEpoch = r.sess.GraphEpoch()
	})
	if buildErr != nil {
		return nil, buildErr
	}
	if req.Spec.Standing && !r.sess.Dynamic() {
		return nil, fmt.Errorf("%w: standing queries need a -dynamic daemon", ErrNotDynamic)
	}
	if req.Spec.Epoch > 0 {
		if cur := r.sess.GraphEpoch(); req.Spec.Epoch != cur {
			return nil, fmt.Errorf("%w: pinned %d, resident %d", ErrEpochMismatch, req.Spec.Epoch, cur)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return nil, ErrDraining
	}
	id := req.ID
	if id == "" {
		for {
			r.seq++
			id = fmt.Sprintf("job-%d", r.seq)
			if _, taken := r.jobs[id]; !taken {
				break
			}
		}
	} else if _, taken := r.jobs[id]; taken {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}

	now := time.Now()
	j := &job{
		id:         id,
		req:        req,
		submitted:  now,
		tenant:     req.Spec.Tenant,
		priority:   req.Spec.Priority,
		built:      built,
		builtEpoch: builtEpoch,
	}
	if req.Spec.DeadlineSeconds > 0 {
		j.deadline = now.Add(time.Duration(req.Spec.DeadlineSeconds * float64(time.Second)))
	}
	j.budget = req.Spec.BudgetSeconds
	if j.budget == 0 {
		j.budget = r.cfg.DefaultBudgetSeconds
	}

	// Result cache: an identical workload already computed on this graph
	// AND epoch is served instantly — the job is born done and consumes no
	// slot. Standing queries never consult the cache: their value is the
	// subscription, not the baseline records.
	if !req.Spec.Standing {
		if res, ok := r.cache.Get(r.cacheKey(req)); ok {
			j.result, j.cached = res, true
			r.terminateLocked(j, StateDone, nil)
			j.started = j.finished
			j.epoch = r.sess.GraphEpoch()
			r.jobs[id] = j
			r.order = append(r.order, id)
			r.evictLocked()
			return j, nil
		}
	}

	// Admission control with load shedding. When the queue is full, the
	// cheapest-to-recompute work loses: if something queued is strictly
	// cheaper than the incoming job, shed it to make room; if the incoming
	// job is itself cheapest (ties included), reject it with 429 — the
	// client resubmits for almost nothing.
	j.estimate = r.meter.Estimate(req.Spec.App)
	if r.queue.Len() >= r.cfg.MaxQueueDepth {
		minCost, ok := r.queue.MinCost()
		if !ok || j.estimate <= minCost {
			return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, r.cfg.MaxQueueDepth)
		}
		if e, ok := r.queue.Shed(); ok {
			r.finishQueuedLocked(r.jobs[e.ID], StateShed, qos.ErrShed)
		}
	}
	j.state = StateQueued
	r.jobs[id] = j
	r.order = append(r.order, id)
	r.queue.Push(qos.Entry{
		ID:       id,
		Tenant:   j.tenant,
		Weight:   j.priority,
		Cost:     j.estimate,
		Deadline: j.deadline,
	})
	r.evictLocked()
	r.pumpLocked()
	return j, nil
}

// finishQueuedLocked moves a still-queued job (already removed from the
// fair queue by the caller) to a terminal state, recording its queue wait.
// Callers hold r.mu.
func (r *registry) finishQueuedLocked(j *job, state string, cause error) {
	if j == nil || j.state != StateQueued {
		return
	}
	r.terminateLocked(j, state, fmt.Errorf("%w: %w", cluster.ErrCancelled, cause))
	r.recordWaitLocked(j)
	r.cond.Broadcast()
}

// terminateLocked moves j to a terminal state — the one place a job becomes
// terminal, so gminer_jobs_finished_total counts every such transition
// exactly once. Callers hold r.mu.
func (r *registry) terminateLocked(j *job, state string, err error) {
	j.state, j.err, j.finished = state, err, time.Now()
	r.finished[state]++
}

// recordWaitLocked folds a job's time-in-queue into its tenant's wait
// summary the moment it leaves the queue (dispatch, shed or cancel).
func (r *registry) recordWaitLocked(j *job) {
	j.queueWait = time.Since(j.submitted)
	tw := r.waits[j.tenant]
	if tw == nil {
		tw = &tenantWait{}
		r.waits[j.tenant] = tw
	}
	tw.sum += j.queueWait.Seconds()
	tw.count++
}

// pumpLocked launches jobs in weighted-fair order while concurrency slots
// are free. Callers hold r.mu.
func (r *registry) pumpLocked() {
	for r.running < r.cfg.MaxConcurrentJobs && !r.draining {
		e, ok := r.queue.Pop()
		if !ok {
			return
		}
		j := r.jobs[e.ID]
		if j == nil || j.state != StateQueued {
			continue
		}
		// A job whose deadline expired while it waited is shed here: there
		// is no point paying its startup cost only to preempt it at the
		// first round boundary.
		if !j.deadline.IsZero() && time.Now().After(j.deadline) {
			r.finishQueuedLocked(j, StateShed, qos.ErrDeadline)
			continue
		}
		a, err := j.built, error(nil)
		j.built = nil
		if a == nil || j.builtEpoch != r.sess.GraphEpoch() {
			r.sess.WithGraphRead(func() { a, err = jobspec.Build(r.sess.Graph(), j.req.Spec) })
		}
		if err != nil {
			r.terminateLocked(j, StateFailed, err)
			r.recordWaitLocked(j)
			continue
		}
		budget := j.req.MemBudgetBytes
		if budget == 0 {
			budget = r.cfg.DefaultMemBudgetBytes
		}
		tracer := trace.New(r.sess.Config().Workers+1, 0).Enable()
		// The spec rides along for multi-process clusters: worker processes
		// rebuild the algorithm from it (an in-process Session ignores it).
		sp := j.req.Spec
		opt := cluster.JobOptions{
			ID:             j.id,
			Spec:           &sp,
			Tracer:         tracer,
			MemBudgetBytes: budget,
			CheckpointEvery: time.Duration(
				j.req.CheckpointEverySeconds * float64(time.Second)),
			RoundHook: roundHook(j, j.budget, j.deadline),
		}
		cj, err := r.sess.Launch(a, opt)
		if err != nil {
			r.terminateLocked(j, StateFailed, err)
			r.recordWaitLocked(j)
			continue
		}
		r.recordWaitLocked(j)
		j.state, j.started, j.tracer, j.cj = StateRunning, time.Now(), tracer, cj
		j.epoch = r.sess.GraphEpoch()
		j.cjAtomic.Store(cj)
		r.running++
		go r.reap(j, cj)
	}
}

// roundHook builds the QoS enforcement point for one job: called by the
// job's master once per scheduling round, it preempts the job — always at
// a round boundary, via the cooperative cancel path — when its measured
// compute spend exceeds its budget or its deadline has passed. Budget and
// deadline are captured by value (immutable after admission); the cluster
// job handle is read from the registry entry, which pumpLocked stores
// before any round can observe meaningful spend.
func roundHook(j *job, budget float64, deadline time.Time) func(int64) {
	if budget <= 0 && deadline.IsZero() {
		return nil
	}
	return func(round int64) {
		cj := j.cjAtomic.Load()
		if cj == nil {
			return // the window between Launch and pumpLocked storing cj
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			cj.CancelCause(qos.ErrDeadline)
			return
		}
		if budget > 0 {
			var cost float64
			for _, snap := range cj.WorkerSnapshots() {
				cost += snap.CostSeconds()
			}
			if cost > budget {
				cj.CancelCause(qos.ErrOverBudget)
			}
		}
	}
}

// reap waits out one launched job and folds its terminal state back into
// the registry: meter the spend, cache a successful result, free the
// concurrency slot. From here the job is its Result: the engine handles are
// dropped, and every reader of a reaped job (status, result, /metrics, the
// standing rounds) reads j.result.
func (r *registry) reap(j *job, cj *cluster.Job) {
	res, err := cj.Wait()
	var cost float64
	if res != nil {
		for _, snap := range res.PerWorker {
			cost += snap.CostSeconds()
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	j.result, j.costSeconds = res, cost
	j.cj, j.tracer = nil, nil
	j.cjAtomic.Store(nil)
	if res != nil && res.ResidentLists > 0 {
		r.residentLists, r.residentBytes = res.ResidentLists, res.ResidentBytes
	}
	switch {
	case err == nil && j.req.Spec.Standing:
		// Baseline done: park the job standing with its epoch-stamped match
		// set. From here each mutation batch appends one DeltaDoc. Never
		// cached — two standing jobs must each hold a live subscription.
		j.state = StateStanding
		j.baseEpoch = j.epoch
		if res != nil {
			j.matchSet = append([]string(nil), res.Records...)
			sort.Strings(j.matchSet)
			j.aggregate = res.AggGlobal
		}
		j.bumpDeltas()
	case err == nil:
		r.terminateLocked(j, StateDone, nil)
		if res != nil {
			r.cache.Put(r.cacheKeyAt(j.req, j.epoch), res)
		}
	case errors.Is(err, qos.ErrOverBudget) || errors.Is(err, qos.ErrDeadline):
		r.terminateLocked(j, StatePreempted, err)
	case errors.Is(err, cluster.ErrCancelled):
		r.terminateLocked(j, StateCancelled, err)
	default:
		r.terminateLocked(j, StateFailed, err)
	}
	// Cancelled and preempted jobs are metered too: their partial spend is
	// real spend, and pricing an app by what its jobs actually burned —
	// even truncated ones — keeps admission estimates honest.
	r.meter.ObserveJob(j.req.Spec.App, j.tenant, cost, resPhases(res))
	j.bumpDeltas() // wake any deltas stream waiting out the baseline
	r.running--
	r.pumpLocked()
	r.cond.Broadcast()
}

func resPhases(res *cluster.Result) []trace.PhaseSummary {
	if res == nil {
		return nil
	}
	return res.Phases
}

// cancel requests cooperative cancellation. A queued job is removed from
// the admission queue on the spot — its slot is reusable immediately, not
// when the dead entry would have reached the head; a running one drains
// asynchronously (its state settles when the reaper returns). Terminal
// jobs are left untouched.
func (r *registry) cancel(id string) (*job, error) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if !ok {
		r.mu.Unlock()
		return nil, ErrUnknownJob
	}
	var cj *cluster.Job
	switch j.state {
	case StateQueued:
		r.queue.Remove(id)
		r.terminateLocked(j, StateCancelled, cluster.ErrCancelled)
		r.recordWaitLocked(j)
		r.cond.Broadcast()
	case StateRunning:
		cj = j.cj
	case StateStanding:
		// Ending a standing query is a plain state flip — there is no
		// cluster job to stop between rounds. Streamers wake and see the
		// terminal state.
		r.terminateLocked(j, StateCancelled, cluster.ErrCancelled)
		j.bumpDeltas()
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	if cj != nil {
		cj.Cancel()
	}
	return j, nil
}

func (r *registry) get(id string) (*job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// evictLocked drops the oldest terminal jobs beyond the retention cap so
// a long-lived daemon's result store cannot grow without bound.
func (r *registry) evictLocked() {
	terminal := 0
	for _, id := range r.order {
		if isTerminal(r.jobs[id].state) {
			terminal++
		}
	}
	if terminal <= r.cfg.MaxRetainedJobs {
		return
	}
	kept := r.order[:0]
	for _, id := range r.order {
		if terminal > r.cfg.MaxRetainedJobs && isTerminal(r.jobs[id].state) {
			delete(r.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
}

func isTerminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCancelled, StatePreempted, StateShed:
		return true
	}
	return false
}

// terminalStates lists every terminal state in exposition order.
var terminalStates = []string{StateDone, StateFailed, StateCancelled, StatePreempted, StateShed}

// counts returns (queued, running, standing, retained jobs by terminal
// state) for /metrics and /healthz.
func (r *registry) counts() (queued, running, standing int, terminal map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	terminal = make(map[string]int, len(terminalStates))
	for _, st := range terminalStates {
		terminal[st] = 0
	}
	for _, j := range r.jobs {
		switch {
		case j.state == StateQueued:
			queued++
		case j.state == StateRunning:
			running++
		case j.state == StateStanding:
			standing++
		default:
			terminal[j.state]++
		}
	}
	return queued, running, standing, terminal
}

// tenantStats snapshots the per-tenant QoS view (queue depth, wait
// summary, completed spend) for the /metrics exposition, sorted by tenant.
func (r *registry) tenantStats() []metrics.TenantStat {
	byTenant := make(map[string]*metrics.TenantStat)
	at := func(tenant string) *metrics.TenantStat {
		ts := byTenant[tenant]
		if ts == nil {
			ts = &metrics.TenantStat{Tenant: tenant}
			byTenant[tenant] = ts
		}
		return ts
	}
	r.mu.Lock()
	for tenant, n := range r.queue.PerTenant() {
		at(tenant).Queued = n
	}
	for tenant, tw := range r.waits {
		ts := at(tenant)
		ts.WaitSumSeconds, ts.WaitCount = tw.sum, tw.count
	}
	r.mu.Unlock()
	_, tenants := r.meter.Snapshot()
	for _, te := range tenants {
		at(te.Tenant).SpendSeconds = te.Spend
	}
	out := make([]metrics.TenantStat, 0, len(byTenant))
	for _, ts := range byTenant {
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// drain refuses new submissions, cancels everything still queued, then
// waits up to timeout for running jobs to finish on their own (their
// periodic checkpoints keep landing while they run out). Jobs still
// running at the deadline are cancelled and waited out.
func (r *registry) drain(timeout time.Duration) {
	r.mu.Lock()
	r.draining = true
	for _, e := range r.queue.Clear() {
		if j := r.jobs[e.ID]; j != nil && j.state == StateQueued {
			r.terminateLocked(j, StateCancelled, cluster.ErrCancelled)
			r.recordWaitLocked(j)
		}
	}
	// Standing queries end with the daemon: flip them terminal so their
	// delta streams close instead of hanging on a session that is about to
	// tear down.
	for _, j := range r.jobs {
		if j.state == StateStanding {
			r.terminateLocked(j, StateCancelled, cluster.ErrCancelled)
			j.bumpDeltas()
		}
	}
	r.mu.Unlock()

	deadline := time.Now().Add(timeout)
	done := make(chan struct{})
	go func() {
		r.mu.Lock()
		for r.running > 0 {
			r.cond.Wait()
		}
		r.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(time.Until(deadline)):
	}

	// Deadline passed: cancel stragglers and wait for their reapers.
	r.mu.Lock()
	var live []*cluster.Job
	for _, j := range r.jobs {
		if j.state == StateRunning && j.cj != nil {
			live = append(live, j.cj)
		}
	}
	r.mu.Unlock()
	for _, cj := range live {
		cj.Cancel()
	}
	<-done
}
