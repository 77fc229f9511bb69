package cluster

import (
	"encoding/json"
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

// sessionCore is what every session is underneath, whichever host its jobs'
// workers live on: the resident graph and its partition, one multiplexed
// transport, the job registry, and the launch and teardown paths. Session
// and RemoteSession embed it and add what is specific to their host.
type sessionCore struct {
	g      *graph.Graph
	cfg    Config
	assign *partition.Assignment

	partitionTime time.Duration

	mux      *transport.Mux
	closeNet func() // shuts the node set the mux is laid over
	// fence is the cluster's fencing-token ledger (nil unless workers are
	// other processes), shared with every job's master and snapshot sink so
	// they refuse checkpoint acks from fenced-out worker generations.
	fence *fenceTable
	// oneShot marks the throwaway session behind cluster.Start: its single
	// job keeps the caller's (usually empty) ID — no job segment on disk —
	// and closes the session at the end of its Wait.
	oneShot bool

	// epochMu is the graph-epoch lock: every job holds the read side from
	// launch until the end of its Wait teardown, and a mutation batch
	// (Session.ApplyMutations) takes the write side — so it applies only
	// when no job is touching the shared graph, assignment or local tables,
	// and jobs always observe a whole epoch. epoch is the current graph
	// epoch, readable lock-free (/healthz, /metrics); it only ever advances
	// on a dynamic Session.
	epochMu sync.RWMutex
	epoch   atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job // a nil entry is an ID reserved by a Launch in progress
	nextCh uint64
	closed bool

	// cut caches assign.EdgeCut(g), an O(E) scan every job's Result carries,
	// for graph epoch cutEpoch-1; a mutation batch retires it with the epoch.
	cutMu    sync.Mutex
	cut      float64
	cutEpoch int64
}

// reserve allocates the job's mux channel and claims its ID; job channels
// start at 1 (0 is the multi-process control channel).
func (s *sessionCore) reserve(id string) (string, uint64, error) {
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

func (s *sessionCore) forget(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// liveJobs snapshots the launched, not yet torn down jobs.
func (s *sessionCore) liveJobs() []*Job {
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

// launchSpec is what a session kind decides about one Launch.
type launchSpec struct {
	// resume restores the job from the committed epochs in its checkpoint
	// directory instead of starting fresh.
	resume bool
	// persist, if non-nil, is written to the checkpoint directory as the
	// durable JOBSPEC a restarted coordinator rebuilds the job from.
	persist *jobspec.Spec
	// newHost places the job's workers, given the job's plan and their
	// endpoints.
	newHost func(j *Job, p core.Plan, eps []transport.Endpoint) (workerHost, error)
}

// launch is the one launch path: derive the job's config from the session
// template, open its mux channel, checkpoint sink and master, hand the
// worker endpoints to the host, and start everything.
func (s *sessionCore) launch(a core.Algorithm, opt JobOptions, ls launchSpec) (*Job, error) {
	id, ch, err := s.reserve(opt.ID)
	if err != nil {
		return nil, err
	}
	// The job's graph-epoch read lease: from here until the end of its Wait
	// teardown the resident graph cannot mutate under it. On a static
	// session the lock is never contended.
	s.epochMu.RLock()
	j, err := s.build(a, opt, id, ch, ls)
	if err != nil {
		s.mux.CloseChannel(ch)
		s.forget(id)
		s.epochMu.RUnlock()
		return nil, err
	}
	cfg := j.cfg
	if ls.persist != nil && cfg.CheckpointDir != "" {
		j.specFile = filepath.Join(cfg.CheckpointDir, jobspecName)
		b, _ := json.Marshal(jobspecFile{ID: id, Spec: *ls.persist, CheckpointEverySeconds: cfg.CheckpointEvery.Seconds()})
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
		go j.master.run()
		_, _ = j.Wait()
		return nil, err
	}

	if cfg.SampleEvery > 0 {
		j.sampler = metrics.NewSampler(cfg.SampleEvery, cfg.Workers*cfg.Threads, j.counters[:cfg.Workers]...)
		j.sampler.Start()
	}
	j.started = time.Now()
	go j.master.run()
	if cfg.FailTimeout > 0 {
		go j.recoveryLoop()
	}
	for _, cr := range cfg.Chaos.Crashes() {
		if cr.Node >= 0 && cr.Node < cfg.Workers {
			go j.runCrash(cr)
		}
	}
	return j, nil
}

// build assembles everything of a job short of running it.
func (s *sessionCore) build(a core.Algorithm, opt JobOptions, id string, ch uint64, ls launchSpec) (*Job, error) {
	cfg := s.cfg
	cfg.JobID = id
	cfg.GraphEpoch = s.epoch.Load()
	cfg.Resume = ls.resume
	cfg.Tracer = opt.Tracer
	cfg.RoundHook = opt.RoundHook
	if opt.MemBudgetBytes > 0 {
		// Charged from worker progress loops, so only a goroutine host
		// enforces it; the serving layer's admission costing applies anyway.
		cfg.MemBudget = memctl.NewBudget(opt.MemBudgetBytes)
	}
	if opt.CheckpointEvery > 0 {
		cfg.CheckpointEvery = opt.CheckpointEvery
	}
	if opt.Seeds != nil {
		cfg.seeds = make(map[graph.VertexID]struct{}, len(opt.Seeds))
		for _, id := range opt.Seeds {
			cfg.seeds[id] = struct{}{}
		}
	}
	if cfg.CheckpointDir != "" {
		cfg.CheckpointDir = filepath.Join(cfg.CheckpointDir, id)
	} else if ls.resume {
		return nil, fmt.Errorf("cluster: resume requires a checkpoint directory")
	}

	nodes := cfg.Workers + 1 // + master
	counters := make([]*metrics.Counters, nodes)
	for i := range counters {
		counters[i] = &metrics.Counters{}
	}
	// Per-job byte accounting happens at the mux endpoints.
	eps, err := s.mux.Open(ch, counters, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	if cfg.Chaos != nil {
		// Task migration payloads carry the tasks themselves: the protocol
		// has no ack/retransmit for them, so a dropped or duplicated
		// msgTasks would lose or double-count work with no recovery path
		// (the same hole the paper's checkpointing closes for crashes).
		// Fault everything else.
		cfg.Chaos.Exempt(msgTasks)
		cfg.Chaos.SetTracer(cfg.Tracer)
		cfg.Chaos.Begin()
		for i := range eps {
			eps[i] = cfg.Chaos.Wrap(eps[i])
		}
	}

	plan := core.PlanOf(a)
	fingerprint := jobFingerprint(s.g, a.Name(), plan, cfg)
	sink, err := newSnapshotSink(cfg.CheckpointDir, cfg.Workers, fingerprint, 0, ls.resume)
	if err != nil {
		return nil, err
	}
	sink.fence = s.fence
	j := &Job{cfg: cfg, sess: s, ch: ch, sink: sink, counters: counters, failures: make(chan int, cfg.Workers)}
	j.resumePin.Store(noEpoch)

	var agg core.Aggregator
	if ap, ok := a.(core.AggregatorProvider); ok {
		agg = ap.Aggregator()
	}
	j.master = newMaster(cfg, eps[cfg.Workers], agg, counters[cfg.Workers], j.failures, sink, s.fence)
	if ls.resume {
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
	j.host, err = ls.newHost(j, plan, eps[:cfg.Workers])
	return j, err
}

// ActiveJobs returns the number of jobs launched and not yet fully torn
// down (a job leaves the count at the end of its Wait).
func (s *sessionCore) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Graph returns the resident graph.
func (s *sessionCore) Graph() *graph.Graph { return s.g }

// Config returns the session's template config (with defaults applied).
func (s *sessionCore) Config() Config { return s.cfg }

// PartitionTime is the one-time static partitioning cost every job
// amortizes.
func (s *sessionCore) PartitionTime() time.Duration { return s.partitionTime }

// close cancels any jobs still running (attributing cause, nil for a plain
// cancel), waits for their teardown, and shuts the transport down. The
// session refuses Launches from the moment close begins.
func (s *sessionCore) close(cause error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

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
}

// Session is a warm cluster serving many mining jobs over one resident
// graph, its workers goroutines of this process. The costs a one-shot run
// pays per query — loading the graph, BDG-partitioning it, building every
// worker's vertex table — are paid once at session start; each Launch then
// reuses the partition assignment, the shared read-only vertex tables and
// one multiplexed transport, so a job's startup cost is only its own
// pipeline state (task store, RCV cache, queues). The paper's task model
// makes jobs independent sets of tasks (§4.1–4.2), so concurrent jobs
// never share mutable state: each gets its own mux channel (job-scoped
// wire envelope), store, cache, counters, checkpoints and tracer.
type Session struct {
	sessionCore
	// tables are the resident graph's vertex tables: the directory, rebuilt
	// with every graph epoch, and one scan per worker, rebuilt for the
	// workers a mutation batch touched.
	tables vertexTables
	// oriented is the per-epoch view of the resident graph for jobs that
	// mine G⁺ (core.Plan.Oriented); a mutation batch marks the rows the next
	// oriented job patches.
	oriented orientedView

	// dyn is the dynamic-session state (nil on a static session); the
	// core's epoch mirrors dyn.Epoch().
	dyn *dyngraph.State
}

// NewSession partitions the frozen graph once and brings the shared
// transport up: the in-process network, or with Config.UseTCP one loopback
// TCP node per worker plus the master. The config is the template every
// job inherits (workers, threads, cache sizes, stealing, ...); per-job
// knobs are set at Launch. With Config.Resume every launched job restores
// from the committed epochs under CheckpointDir/<job ID>.
func NewSession(g *graph.Graph, cfg Config) (*Session, error) {
	return newSession(g, cfg, false)
}

func newSession(g *graph.Graph, cfg Config, oneShot bool) (*Session, error) {
	cfg = cfg.Defaults()
	if !g.Frozen() {
		return nil, fmt.Errorf("cluster: graph must be frozen")
	}
	s := &Session{sessionCore: sessionCore{g: g, cfg: cfg, oneShot: oneShot, jobs: make(map[string]*Job)}}

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

	s.tables = newVertexTables(g, s.assign, allWorkers(cfg.Workers))

	under, closeNet, err := newNodeSet(cfg)
	if err != nil {
		return nil, err
	}
	s.mux, s.closeNet = transport.NewMux(under), closeNet
	return s, nil
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
	// job with an error wrapping memctl.ErrOOM. Enforced by a Session; a
	// RemoteSession's workers charge no budget.
	MemBudgetBytes int64
	// CheckpointEvery overrides the template's checkpoint interval for
	// this job; 0 inherits it.
	CheckpointEvery time.Duration
	// RoundHook, if non-nil, is called by the job's master once per
	// scheduling round (see Config.RoundHook). The serving layer's QoS
	// enforcement point: budget and deadline checks run here so a job is
	// only ever stopped at a round boundary.
	RoundHook func(round int64)
	// Spec is the job's normalized workload spec, what a RemoteSession's
	// worker processes rebuild the algorithm from (jobspec.Build), since a
	// core.Algorithm value cannot cross a process boundary; the coordinator
	// persists it as the job's JOBSPEC, and a RemoteSession requires it. A
	// Session ignores it: its workers run the core.Algorithm value passed to
	// Launch, whose plan alone decides the planned or generic path.
	Spec *jobspec.Spec
	// Seeds, when non-nil, is the set of vertices the job seeds tasks at:
	// each worker's seeder walks its scan as ever and skips the vertices not
	// in the set, so the job is the full job minus the tasks of the other
	// seeds — same order, same cursor, same restore. IDs the graph does not
	// hold are ignored; an empty non-nil set runs no task. It is a job
	// input, not a knob: a standing query re-mines the seeds a mutation
	// batch can have reached (core.Plan.SeedRadius) and nothing else. A
	// RemoteSession refuses it: its worker processes hold their own copy of
	// the graph, and a set computed on the coordinator's would not be one
	// over theirs once mutations exist there.
	Seeds []graph.VertexID
}

// Launch starts one mining job on the warm cluster and returns its handle.
// The caller collects the result with Job.Wait (which also releases the
// job's mux channel) and may Cancel it at any time without disturbing
// co-resident jobs.
func (s *Session) Launch(a core.Algorithm, opt JobOptions) (*Job, error) {
	return s.launch(a, opt, launchSpec{
		resume: s.cfg.Resume,
		newHost: func(j *Job, p core.Plan, eps []transport.Endpoint) (workerHost, error) {
			// j holds its epoch lease: the view is of the graph j runs on.
			tables := s.oriented.tables(p, s.g, s.assign, j.cfg.GraphEpoch, s.tables)
			return &goroutineHost{j: j, algo: a, tables: tables, eps: eps, workers: make([]*Worker, len(eps))}, nil
		},
	})
}

// EdgeCut is the partitioning edge-cut fraction of the resident
// assignment.
func (s *sessionCore) EdgeCut() float64 {
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	return s.edgeCut()
}

// edgeCut computes the edge cut once per graph epoch (caller holds epochMu).
func (s *sessionCore) edgeCut() float64 {
	s.cutMu.Lock()
	defer s.cutMu.Unlock()
	if key := s.epoch.Load() + 1; s.cutEpoch != key {
		s.cut, s.cutEpoch = s.assign.EdgeCut(s.g), key
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
	cfg.GraphEpoch = s.epoch.Load()
	return jobFingerprint(s.g, "session", core.Plan{}, cfg)
}

// Dynamic reports whether the session accepts mutations.
func (s *Session) Dynamic() bool { return s.dyn != nil }

// GraphEpoch returns the current graph epoch (0 = the loaded snapshot;
// always 0 on a static session, and on a RemoteSession, whose worker
// processes each hold their own immutable copy of the graph). Lock-free,
// safe from any goroutine.
func (s *sessionCore) GraphEpoch() int64 { return s.epoch.Load() }

// WithGraphRead runs fn while holding a graph-epoch read lease: the
// resident graph cannot mutate during fn. Control-plane reads of the
// graph (spec validation against it, stats for health endpoints) go
// through here on serving daemons; jobs get the same protection
// implicitly from Launch.
func (s *sessionCore) WithGraphRead(fn func()) {
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
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("cluster: session closed")
	}
	start := time.Now()
	info, err := s.dyn.Apply(s.g, b)
	if err != nil {
		return nil, err
	}
	s.assign = s.dyn.Assignment()
	s.oriented.follow(info.Touched)
	// The batch may have moved the ID span and any vertex's owner: the
	// directory never outlives its epoch. Its pass cuts the touched
	// workers' scans too; the others keep theirs.
	cut := newVertexTables(s.g, s.assign, info.DirtyWorkers)
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

// DroppedMessages counts stale wire messages the mux discarded (traffic
// addressed to already-torn-down jobs).
func (s *Session) DroppedMessages() int64 { return s.mux.Dropped() }

// Close cancels any jobs still running, waits for their teardown, and
// shuts the shared transport down. The session refuses Launches from the
// moment Close begins.
func (s *Session) Close() { s.close(nil) }
