package cluster

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/memctl"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/trace"
	"gminer/internal/transport"
)

// Session is a warm cluster serving many mining jobs over one resident
// graph. The costs a one-shot run pays per query — loading the graph,
// BDG-partitioning it, building every worker's vertex table — are paid once
// at session start; each Launch then reuses the partition assignment, the
// shared read-only vertex tables and one multiplexed transport, so a job's
// startup cost is only its own pipeline state (task store, RCV cache,
// queues). The paper's task model makes jobs independent sets of tasks
// (§4.1–4.2), so concurrent jobs never share mutable state: each gets its
// own mux channel (job-scoped wire envelope), store, cache, counters,
// checkpoints and tracer.
//
// Its jobs' workers live on one of two hosts, chosen when it is built:
// goroutines of this process (NewSession), or other OS processes that join
// a coordinator (NewRemoteSession). Either way a job takes the one launch
// path, master and teardown below; the host is only where its workers run.
type Session struct {
	g      *graph.Graph
	cfg    Config
	assign *partition.Assignment

	partitionTime time.Duration

	mux      *transport.Mux
	closeNet func() // shuts the node set the mux is laid over
	// oneShot marks the throwaway session behind cluster.Start: its single
	// job keeps the caller's (usually empty) ID — no job segment on disk —
	// and closes the session at the end of its Wait.
	oneShot bool

	// epochMu is the graph-epoch lock: every job holds the read side from
	// launch until the end of its Wait teardown, and a mutation batch
	// (ApplyMutations) takes the write side — so it applies only when no job
	// is touching the shared graph, assignment or local tables, and jobs
	// always observe a whole epoch. epoch is the current graph epoch,
	// readable lock-free (/healthz, /metrics); it only ever advances on a
	// dynamic session.
	epochMu sync.RWMutex
	epoch   atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job // a nil entry is an ID reserved by a Launch in progress
	nextCh uint64
	closed bool

	// cut caches the edge cut, an O(E) scan every job's Result carries, for
	// graph epoch cutEpoch-1, and fold the fingerprint's graph fold, an O(V)
	// scan every Launch needs, for epoch foldEpoch-1; a mutation batch
	// retires both with the epoch.
	cutMu     sync.Mutex
	cut       float64
	cutEpoch  int64
	fold      string
	foldEpoch int64

	// The goroutine host's state. tables are the resident graph's vertex
	// tables: the directory, rebuilt with every graph epoch, and one scan per
	// worker, rebuilt for the workers a mutation batch touched. oriented is
	// the per-epoch view of the resident graph for jobs that mine G⁺
	// (core.Plan.Oriented); a mutation batch marks the rows the next oriented
	// job patches. dyn is the dynamic-session state (nil on a static
	// session); epoch mirrors dyn.Epoch().
	tables   vertexTables
	order    hashOrder // every slot in seed-scan order; dynamic sessions only
	oriented orientedView
	dyn      *dyngraph.State
	// wrapEps, when set (tests only), wraps each job's worker endpoints.
	wrapEps func(eps []transport.Endpoint)

	// coord is the process host's state — slots, the join handshake,
	// fencing, the control loop, drain and the held JOBSPECs; nil on the
	// goroutine host.
	coord *coordinator
}

// NewSession partitions the frozen graph once and brings the shared
// transport up for the goroutine host: the in-process network, or with
// Config.UseTCP one loopback TCP node per worker plus the master. The config
// is the template every job inherits (workers, threads, cache sizes,
// stealing, ...); per-job knobs are set at Launch. With Config.Resume every
// launched job restores from the committed epochs under
// CheckpointDir/<job ID>.
func NewSession(g *graph.Graph, cfg Config) (*Session, error) {
	s, err := openSession(g, cfg)
	if err != nil {
		return nil, err
	}
	if s.dyn == nil {
		s.tables = newVertexTables(g, s.assign, allWorkers(s.cfg.Workers))
	} else {
		s.tables = s.order.cut(g, s.assign, allWorkers(s.cfg.Workers))
	}

	under, closeNet, err := newNodeSet(s.cfg)
	if err != nil {
		return nil, err
	}
	s.mux, s.closeNet = transport.NewMux(under), closeNet
	return s, nil
}

// openSession is what both hosts' constructors share: the template config
// with defaults, the frozen graph, and its one partitioning.
func openSession(g *graph.Graph, cfg Config) (*Session, error) {
	cfg = cfg.Defaults()
	if !g.Frozen() {
		return nil, fmt.Errorf("cluster: graph must be frozen")
	}
	s := &Session{g: g, cfg: cfg, jobs: make(map[string]*Job)}

	pStart := time.Now()
	if cfg.Dynamic {
		blocked, ok := cfg.Partitioner.(partition.Blocked)
		if !ok {
			return nil, fmt.Errorf("cluster: dynamic sessions require the blocked partitioner, not %q", cfg.Partitioner.Name())
		}
		st, err := dyngraph.NewState(g, cfg.Workers, blocked.Shift)
		if err != nil {
			return nil, fmt.Errorf("cluster: partition: %w", err)
		}
		s.dyn = st
		s.assign = st.Assignment()
	} else {
		a, err := cfg.Partitioner.Partition(g, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("cluster: partition: %w", err)
		}
		s.assign = a
	}
	s.partitionTime = time.Since(pStart)
	return s, nil
}

// reserve allocates the job's mux channel and claims its ID; job channels
// start at 1 (0 is the process host's control channel).
func (s *Session) reserve(id string) (string, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", 0, fmt.Errorf("cluster: session closed")
	}
	s.nextCh++
	if id == "" && !s.oneShot {
		id = fmt.Sprintf("job-%d", s.nextCh)
	}
	if _, live := s.jobs[id]; live {
		return "", 0, fmt.Errorf("cluster: job id %q already running", id)
	}
	// Reserved before the lock drops so concurrent Launches with the same
	// explicit ID cannot both proceed.
	s.jobs[id] = nil
	return id, s.nextCh, nil
}

// channel allocates the mux channel of a job's next attempt.
func (s *Session) channel() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("cluster: session closed")
	}
	s.nextCh++
	return s.nextCh, nil
}

// openAttempt opens mux channel ch for one attempt of a job with config cfg
// and returns its endpoints, the workers' then the master's: each one
// charged to the node's counters and behind the job's fault profile, and the
// workers' handed to the wrapEps hook.
func (s *Session) openAttempt(ch uint64, cfg Config, counters []*metrics.Counters) ([]transport.Endpoint, error) {
	eps, err := s.mux.Open(ch, counters, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	for i := range eps {
		eps[i] = cfg.Chaos.Wrap(eps[i])
	}
	if s.wrapEps != nil {
		s.wrapEps(eps[:cfg.Workers])
	}
	return eps, nil
}

func (s *Session) forget(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// closing reports whether Close has begun.
func (s *Session) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// liveJobs snapshots the launched, not yet torn down jobs.
func (s *Session) liveJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j != nil {
			live = append(live, j)
		}
	}
	return live
}

// Launch starts one mining job on the warm cluster and returns its handle.
// The caller collects the result with Job.Wait (which also releases the
// job's mux channel) and may Cancel it at any time without disturbing
// co-resident jobs. On the process host opt.Spec must name the workload,
// and a job whose ID matches a JOBSPEC+MANIFEST found at a `-resume` start
// restores from its committed epochs instead of starting fresh.
func (s *Session) Launch(a core.Algorithm, opt JobOptions) (*Job, error) {
	resume := s.cfg.Resume
	if s.coord != nil {
		if opt.Spec == nil {
			return nil, fmt.Errorf("cluster: remote launch requires JobOptions.Spec (worker processes rebuild the algorithm from it)")
		}
		if opt.Seeds != nil {
			return nil, fmt.Errorf("cluster: remote launch does not take JobOptions.Seeds (worker processes hold their own graph copy; mutations do not reach them yet)")
		}
		// A held job's ID resumes it, once.
		s.coord.mu.Lock()
		_, resume = s.coord.held[opt.ID]
		delete(s.coord.held, opt.ID)
		s.coord.mu.Unlock()
	}
	id, ch, err := s.reserve(opt.ID)
	if err != nil {
		return nil, err
	}
	// The job's graph-epoch read lease: from here until the end of its Wait
	// teardown the resident graph cannot mutate under it. On a static
	// session the lock is never contended.
	s.epochMu.RLock()
	j, err := s.build(a, opt, id, ch, resume)
	if err != nil {
		s.mux.CloseChannel(ch)
		s.forget(id)
		s.epochMu.RUnlock()
		return nil, err
	}
	cfg := j.cfg
	if s.coord != nil && cfg.CheckpointDir != "" {
		// The durable JOBSPEC a restarted coordinator rebuilds the job from.
		j.specFile = filepath.Join(cfg.CheckpointDir, jobspecName)
		b := encodeCtrl(HeldJob{ID: id, Spec: *opt.Spec, CheckpointEverySeconds: cfg.CheckpointEvery.Seconds()})
		// On failure the job still runs; coordinator resume will not cover it.
		_ = writeFileDurable(j.specFile, b)
	}
	// Registered before any worker starts: results and rejoining worker
	// processes find the job through the registry.
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	if err := j.startWorkers(); err != nil {
		// Tear down through Wait, like any job (a concurrent Close may
		// already be waiting on it).
		j.master.stop()
		go j.master.run(nil)
		_, _ = j.Wait()
		return nil, err
	}

	if cfg.SampleEvery > 0 {
		j.sampler = metrics.NewSampler(cfg.SampleEvery, cfg.Workers*cfg.Threads, j.counters[:cfg.Workers]...)
		j.sampler.Start()
	}
	j.started = time.Now()
	// A failed rollback has already failed the job (recoverLost).
	go j.master.run(func(i int, now time.Time) { _ = j.recoverLost(i, now) })
	for _, cr := range cfg.Chaos.Crashes() {
		if cr.Node >= 0 && cr.Node < cfg.Workers {
			go j.runCrash(cr)
		}
	}
	if resume && s.coord != nil {
		s.coord.logf("job %s resumed from committed checkpoint", id)
	}
	return j, nil
}

// jobConfig derives job id's config from a host's template, on the
// coordinator and in every worker process alike: its ID, the per-job
// checkpoint interval (0 keeps the template's) and its own checkpoint
// subdirectory under the template's (none without one).
func jobConfig(tmpl Config, id string, checkpointEvery time.Duration) Config {
	cfg := tmpl
	cfg.jobID = id
	if checkpointEvery > 0 {
		cfg.CheckpointEvery = checkpointEvery
	}
	if cfg.CheckpointDir != "" {
		cfg.CheckpointDir = filepath.Join(cfg.CheckpointDir, id)
	}
	return cfg
}

// build assembles everything of a job short of running it.
func (s *Session) build(a core.Algorithm, opt JobOptions, id string, ch uint64, resume bool) (*Job, error) {
	cfg := jobConfig(s.cfg, id, opt.CheckpointEvery)
	cfg.graphEpoch = s.epoch.Load()
	cfg.Resume = resume
	cfg.Tracer = opt.Tracer
	cfg.roundHook = opt.RoundHook
	if opt.MemBudgetBytes > 0 {
		// Charged by the goroutine host's workers (chargeBudget), so only
		// it enforces the budget; the serving layer's admission costing
		// applies anyway.
		cfg.memBudget = memctl.NewBudget(opt.MemBudgetBytes)
	}
	if opt.Seeds != nil {
		cfg.seeds = make(map[graph.VertexID]struct{}, len(opt.Seeds))
		for _, id := range opt.Seeds {
			cfg.seeds[id] = struct{}{}
		}
	}
	if resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("cluster: resume requires a checkpoint directory")
	}

	nodes := cfg.Workers + 1 // + master
	counters := make([]*metrics.Counters, nodes)
	for i := range counters {
		counters[i] = &metrics.Counters{}
	}
	if cfg.Chaos != nil {
		cfg.Chaos.SetTracer(cfg.Tracer)
		cfg.Chaos.Begin()
	}
	// Per-job byte accounting happens at the mux endpoints.
	eps, err := s.openAttempt(ch, cfg, counters)
	if err != nil {
		return nil, err
	}

	plan := core.PlanOf(a)
	fingerprint := foldFingerprint(s.epochFold(), a.Name(), plan, cfg)
	sink, err := newSnapshotSink(cfg.CheckpointDir, cfg.Workers, fingerprint, 0, resume)
	if err != nil {
		return nil, err
	}
	if s.coord != nil {
		sink.fence = s.coord.fence // the goroutine host leaves it nil: unfenced
	}
	j := &Job{cfg: cfg, sess: s, sink: sink, counters: counters, pin: noEpoch}
	j.ch.Store(ch)

	var agg core.Aggregator
	if ap, ok := a.(core.AggregatorProvider); ok {
		agg = ap.Aggregator()
	}
	j.master = newMaster(cfg, eps[cfg.Workers], agg, counters[cfg.Workers], sink, sink.fence)
	if resume {
		man := sink.manifestView()
		if man == nil {
			return nil, fmt.Errorf("cluster: resume: no committed checkpoint in %s", cfg.CheckpointDir)
		}
		if man.Fingerprint != fingerprint {
			return nil, fmt.Errorf("cluster: resume: checkpoint fingerprint %016x does not match this job (%016x): "+
				"the graph, algorithm, plan, worker count or partitioner changed since the checkpoint was taken",
				man.Fingerprint, fingerprint)
		}
		// New epochs must supersede every committed one or the manifest's
		// newest-first ordering breaks.
		j.master.epoch = man.Epoch
	}
	k := cfg.Workers
	if s.coord != nil {
		// The worker processes rebuild the algorithm from the spec; the
		// coordinator hosts no worker, so it offers no oriented view.
		j.host = &processHost{c: s.coord, j: j, spec: *opt.Spec, started: make([]int64, k), attempt: make([]uint64, k),
			results: make([]jobResultMsg, k), arrived: make(chan struct{}, 1)}
	} else {
		// j holds its epoch lease: the view is of the graph j runs on.
		tables := s.oriented.tables(plan, s.g, s.assign, cfg.graphEpoch, s.tables)
		j.host = &goroutineHost{j: j, algo: a, tables: tables, eps: eps[:k], workers: make([]*Worker, k)}
	}
	if resume {
		// One committed epoch for every worker: the newest all of them hold,
		// or the manifest's head if the hosts cannot tell, which then fails
		// the job at the restore that cannot load it.
		if j.pin = j.heldEpoch(); j.pin == noEpoch {
			j.pin = sink.manifestView().Epoch
		}
	}
	return j, nil
}

// ActiveJobs returns the number of jobs launched and not yet fully torn
// down (a job leaves the count at the end of its Wait).
func (s *Session) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Graph returns the resident graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Config returns the session's template config (with defaults applied).
func (s *Session) Config() Config { return s.cfg }

// PartitionTime is the one-time static partitioning cost every job
// amortizes.
func (s *Session) PartitionTime() time.Duration { return s.partitionTime }

// Close cancels any jobs still running, waits for their teardown, and
// shuts the shared transport down. The session refuses Launches from the
// moment Close begins. On the process host the cancellation is attributed
// to coordinator shutdown, which keeps each job's durable JOBSPEC on disk
// for a `-resume` coordinator; the worker processes see their connections
// die and exit on their own schedule.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	var cause error // nil: a plain cancel
	if s.coord != nil {
		cause = errCoordinatorShutdown
	}
	live := s.liveJobs()
	for _, j := range live {
		j.CancelCause(cause)
	}
	for _, j := range live {
		_, _ = j.Wait()
	}
	s.mux.Close()
	s.closeNet()
	s.mux.WaitDemux()
	if s.coord != nil {
		<-s.coord.ctlDone
	}
}

// newNodeSet brings up the K+1 nodes a goroutine-host session's mux is laid
// over: the in-process network, or for Config.UseTCP one RemoteNetwork per
// node on loopback with a static peer table — the very stack a
// multi-process cluster runs on, minus the join handshake.
func newNodeSet(cfg Config) ([]transport.Endpoint, func(), error) {
	nodes := cfg.Workers + 1
	under := make([]transport.Endpoint, nodes)
	if !cfg.UseTCP {
		ln := transport.NewLocal(transport.LocalConfig{Nodes: nodes, Latency: cfg.Latency, BandwidthBps: cfg.BandwidthBps})
		for i := range under {
			under[i] = ln.Endpoint(i)
		}
		return under, ln.Close, nil
	}
	nets := make([]*transport.RemoteNetwork, 0, nodes)
	closeAll := func() {
		for _, n := range nets {
			n.Close()
		}
	}
	for i := range under {
		n, err := transport.NewRemote(transport.RemoteConfig{Nodes: nodes, Local: i, Listen: "127.0.0.1:0"})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		nets = append(nets, n)
		under[i] = n.Endpoint()
	}
	for _, a := range nets {
		for k, b := range nets {
			a.SetPeer(k, b.Addr()) // (its own entry is never dialed: self-sends loop back)
		}
	}
	return under, closeAll, nil
}

// JobOptions are the per-job knobs of a session's Launch.
type JobOptions struct {
	// ID names the job; it namespaces spill/checkpoint directories and
	// metrics labels. Empty picks "job-<n>". IDs of live jobs must be
	// unique; a finished job's ID may be reused.
	ID string
	// Tracer, if non-nil, records this job's pipeline events and latency
	// histograms (create with trace.New(Workers+1, ...)).
	Tracer *trace.Tracer
	// MemBudgetBytes bounds the job-owned memory (task store + RCV cache
	// summed over workers). 0 means unlimited. Exceeding it cancels the
	// job with an error wrapping memctl.ErrOOM. Enforced on the goroutine
	// host; worker processes charge no budget.
	MemBudgetBytes int64
	// CheckpointEvery overrides the template's checkpoint interval for
	// this job; 0 inherits it.
	CheckpointEvery time.Duration
	// RoundHook, if non-nil, is called with the round number by the job's
	// master goroutine once per scheduling round, at least once per 2 ms
	// heartbeat while the job runs. The serving layer's QoS checks budgets
	// and deadlines here, so a job is only ever stopped at a round boundary;
	// the hook may call Job.CancelCause, and must be fast.
	RoundHook func(round int64)
	// Spec is the job's normalized workload spec, what the process host's
	// worker processes rebuild the algorithm from (jobspec.Build), since a
	// core.Algorithm value cannot cross a process boundary; the coordinator
	// persists it as the job's JOBSPEC, and the process host requires it.
	// The goroutine host ignores it: its workers run the core.Algorithm value
	// passed to Launch, whose plan alone decides what the runtime offers it.
	Spec *jobspec.Spec
	// Seeds, when non-nil, is the set of vertices the job seeds tasks at:
	// each worker's seed ranges walk its scan as ever and skip the vertices not
	// in the set, so the job is the full job minus the tasks of the other
	// seeds — same order, same cursor, same restore. IDs the graph does not
	// hold are ignored; an empty non-nil set runs no task. It is a job
	// input, not a knob: a standing query re-mines the seeds a mutation
	// batch can have reached (core.Plan.SeedRadius) and nothing else. The
	// process host refuses it: its worker processes hold their own copy of
	// the graph, and a set computed on the coordinator's would not be one
	// over theirs once mutations exist there.
	Seeds []graph.VertexID
}

// EdgeCut is the partitioning edge-cut fraction of the resident
// assignment.
func (s *Session) EdgeCut() float64 {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	return s.edgeCut()
}

// edgeCut computes the edge cut once per graph epoch (caller holds epochMu).
func (s *Session) edgeCut() float64 {
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	if key := s.epoch.Load() + 1; s.cutEpoch != key {
		// A dynamic session's first job after each batch pays this scan,
		// inside the mutation POST when a round stands.
		s.cut = s.assign.EdgeCut(s.g)
		s.cutEpoch = key
	}
	return s.cut
}

// Fingerprint identifies the resident graph plus the session topology
// (worker count, partitioner) — everything that, beyond the workload
// spec itself, determines a job's output. The serving layer's result
// cache keys on it so entries die with the graph they were computed on;
// on a dynamic session the current graph epoch folds in too.
func (s *Session) Fingerprint() uint64 {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	cfg := s.cfg
	cfg.graphEpoch = s.epoch.Load()
	return foldFingerprint(s.epochFold(), "session", core.Plan{}, cfg)
}

// epochFold computes the fingerprint's graph fold once per graph epoch
// (caller holds epochMu).
func (s *Session) epochFold() string {
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	if key := s.epoch.Load() + 1; s.foldEpoch != key {
		s.fold = graphFold(s.g)
		s.foldEpoch = key
	}
	return s.fold
}

// Dynamic reports whether the session accepts mutations: one built with
// Config.Dynamic on the goroutine host.
func (s *Session) Dynamic() bool { return s.dyn != nil }

// GraphEpoch returns the current graph epoch (0 = the loaded snapshot;
// always 0 on a static session, and on the process host, whose worker
// processes each hold their own immutable copy of the graph). Lock-free,
// safe from any goroutine.
func (s *Session) GraphEpoch() int64 { return s.epoch.Load() }

// WithGraphRead runs fn while holding a graph-epoch read lease: the
// resident graph cannot mutate during fn. Control-plane reads of the
// graph (spec validation against it, stats for health endpoints) go
// through here on serving daemons; jobs get the same protection
// implicitly from Launch.
func (s *Session) WithGraphRead(fn func()) {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	fn()
}

// EpochResult reports what one applied mutation batch changed.
type EpochResult struct {
	// Epoch is the graph epoch after the batch.
	Epoch int64
	// Stats is what the batch did to the graph.
	Stats dyngraph.ApplyStats
	// DirtyBlocks is the number of partition blocks containing a
	// structurally-changed vertex; MovedBlocks counts blocks whose owner
	// changed under re-placement.
	DirtyBlocks int
	MovedBlocks int
	// RebuiltWorkers lists the workers whose local vertex tables were
	// migrated (rebuilt); the other workers' tables were provably
	// untouched by the batch and survive as-is.
	RebuiltWorkers []int
	// ApplyTime is the wall time of the whole epoch apply (mutation +
	// incremental re-placement + table migration), excluding any wait for
	// running jobs to finish.
	ApplyTime time.Duration
}

// ApplyMutations applies one batch to the resident graph, advancing the
// graph epoch. It blocks until every running job has finished (jobs hold
// epoch read leases), then mutates the graph in place, incrementally
// re-places the partition blocks, and rebuilds only the local tables of
// workers the batch actually touched. The oriented view is not recut here:
// it is keyed by epoch and only learns which vertices the batch touched, so
// the next job that mines it pays for patching those rows, lazily.
func (s *Session) ApplyMutations(b dyngraph.Batch) (*EpochResult, error) {
	if s.dyn == nil {
		return nil, fmt.Errorf("cluster: session is not dynamic (enable Config.Dynamic)")
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	if s.closing() {
		return nil, fmt.Errorf("cluster: session closed")
	}
	start := time.Now()
	info, err := s.dyn.Apply(s.g, b)
	if err != nil {
		return nil, err
	}
	s.assign = s.dyn.Assignment()
	s.oriented.follow(info.Touched)
	// The batch may have issued new IDs and moved any vertex's owner: the
	// directory never outlives its epoch. The touched workers' scans are
	// cut from the session's order, which merges in only the new IDs; the
	// other workers keep theirs.
	cut := s.order.cut(s.g, s.assign, info.DirtyWorkers)
	s.tables.dir = cut.dir
	var rebuilt []int
	for w, lt := range cut.locals {
		if lt != nil {
			s.tables.locals[w] = lt
			rebuilt = append(rebuilt, w)
		}
	}
	s.epoch.Store(info.Epoch)
	return &EpochResult{
		Epoch:          info.Epoch,
		Stats:          info.Stats,
		DirtyBlocks:    info.DirtyBlocks,
		MovedBlocks:    info.MovedBlocks,
		RebuiltWorkers: rebuilt,
		ApplyTime:      time.Since(start),
	}, nil
}
