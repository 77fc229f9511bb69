package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/partition"
	"gminer/internal/plan"
	"gminer/internal/server"
)

// workload is one named set of inputs and load. The names are permanent:
// later PRs are judged per (metric, workload) pair.
type workload struct {
	name string
	// app is the job the closed loops launch and the traced run's ladder
	// climbs with.
	app string
	// tail marks the workload whose sample supports job_latency_ms_p90.
	tail bool
	// graph generates the workload's input graph from the seed.
	graph func(sz sizes, seed int64) *graph.Graph
	// config is the workload's 2-worker engine configuration.
	config func(sz sizes) cluster.Config
	// setup does everything between the generated graph and the first
	// timed operation.
	setup func(w workload, g *graph.Graph, sz sizes, seed int64, rec *recorder) (instance, error)
	// warm is how many warm-up jobs a closed loop runs in set-up; tcp puts
	// its workers behind loopback TCP.
	warm func(sz sizes) int
	tcp  bool
	// probe, if set, measures in a traced run the layers only this
	// workload exercises.
	probe func(w workload, sz sizes, seed int64, rec *recorder, em *emitter) (*samples, error)
}

// start generates the workload's input and sets it up, ready to measure.
func (w workload) start(sz sizes, seed int64, rec *recorder) (instance, error) {
	return w.setup(w, w.graph(sz, seed), sz, seed, rec)
}

// instance is one set-up workload, ready to be measured once.
type instance interface {
	// measure runs the timed section for about d.
	measure(d time.Duration) *samples
	// verify runs the oracle over what measure collected, after the timed
	// section, and counts every mismatch in s.failed.
	verify(s *samples) error
	close()
}

// samples is what a timed section collected.
type samples struct {
	attempted, failed int       // operations: jobs plus mutations
	jobMS             []float64 // latency of each job that succeeded
	applyMS           []float64 // dyn-standing-mix: mutation round trips
	lateMS            []float64 // open loop: how late each arrival was sent
}

func defaultConfig(sizes) cluster.Config { return engineConfig() }

var workloads = []workload{
	{
		name: "serve-tiny-open", app: "tc", tail: true,
		graph:  func(sz sizes, seed int64) *graph.Graph { return annotated(sz.tiny, seed) },
		config: defaultConfig,
		setup:  setupServe,
		probe:  probeServing,
	},
	{
		name: "batch-tc-compute", app: "tc",
		graph:  func(sz sizes, seed int64) *graph.Graph { return rmat(sz.tc, seed) },
		config: defaultConfig,
		setup:  setupBatch,
		warm:   func(sz sizes) int { return sz.warmTC },
	},
	{
		name: "batch-gm-compute", app: "gm",
		graph: func(sz sizes, seed int64) *graph.Graph {
			g := rmat(sz.gm, seed)
			dealLabels(g)
			return g
		},
		config: defaultConfig,
		setup:  setupBatch,
		warm:   func(sz sizes) int { return sz.warmGM },
	},
	{
		// Hash partitioning cuts almost every edge and the RCV cache is far
		// smaller than the graph, so vertex pulling is the dominant cost.
		name: "batch-tc-pull-tcp", app: "tc",
		graph: func(sz sizes, seed int64) *graph.Graph { return rmat(sz.pull, seed) },
		config: func(sz sizes) cluster.Config {
			cfg := engineConfig()
			cfg.Partitioner = partition.Hash{}
			cfg.CacheCapacity = sz.pullCache
			return cfg
		},
		setup: setupBatch,
		warm:  func(sz sizes) int { return sz.warmPull },
		tcp:   true,
	},
	{
		name: "dyn-standing-mix", app: "tc",
		graph: communityGraph,
		config: func(sizes) cluster.Config {
			cfg := engineConfig()
			cfg.Dynamic = true
			cfg.Partitioner = partition.Blocked{}
			return cfg
		},
		setup: setupDyn,
		probe: probeDynamic,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// ---- closed-loop batch workloads -----------------------------------------

// launcher is what a closed-loop client needs from a warm cluster; the
// in-process Session and the multi-process RemoteSession both provide it.
type launcher interface {
	Launch(a core.Algorithm, opt cluster.JobOptions) (*cluster.Job, error)
	Close()
}

// batchInst is one client launching the same job back to back.
type batchInst struct {
	g       *graph.Graph
	spec    jobspec.Spec
	sess    launcher
	workers []*cluster.WorkerProcess
	aggs    []string // aggregate of every timed job, for the oracle
}

func setupBatch(w workload, g *graph.Graph, sz sizes, _ int64, _ *recorder) (instance, error) {
	b := &batchInst{g: g, spec: jobspec.Spec{App: w.app}.Normalize()}
	var err error
	if w.tcp {
		b.sess, b.workers, err = remoteCluster(g, w.config(sz))
	} else {
		b.sess, err = cluster.NewSession(g, w.config(sz))
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.warm(sz); i++ {
		if _, err := b.run(cluster.JobOptions{}); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return b, nil
}

// remoteCluster hosts a coordinator and its worker "processes" in this
// process; they still talk over real loopback TCP sockets.
func remoteCluster(g *graph.Graph, cfg cluster.Config) (*cluster.RemoteSession, []*cluster.WorkerProcess, error) {
	rs, err := cluster.NewRemoteSession(g, cfg, cluster.RemoteSessionConfig{})
	if err != nil {
		return nil, nil, err
	}
	var wps []*cluster.WorkerProcess
	for i := 0; i < cfg.Workers; i++ {
		wp, err := cluster.StartWorkerProcess(g, cfg, cluster.WorkerOptions{Coordinator: rs.Addr(), Node: i})
		if err != nil {
			closeRemote(rs, wps)
			return nil, nil, fmt.Errorf("worker %d: %w", i, err)
		}
		wps = append(wps, wp)
	}
	if err := rs.WaitReady(30 * time.Second); err != nil {
		closeRemote(rs, wps)
		return nil, nil, err
	}
	return rs, wps, nil
}

func closeRemote(rs *cluster.RemoteSession, wps []*cluster.WorkerProcess) {
	for _, wp := range wps {
		wp.Close()
	}
	rs.Close()
}

// run launches one job and waits for its result.
func (b *batchInst) run(opt cluster.JobOptions) (*cluster.Result, error) {
	a, err := jobspec.Build(b.g, b.spec)
	if err != nil {
		return nil, err
	}
	opt.Spec = &b.spec
	j, err := b.sess.Launch(a, opt)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

func (b *batchInst) measure(d time.Duration) *samples {
	s := &samples{}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		start := time.Now()
		res, err := b.run(cluster.JobOptions{})
		s.attempted++
		if err != nil {
			s.failed++
			continue
		}
		s.jobMS = append(s.jobMS, msSince(start))
		b.aggs = append(b.aggs, fmt.Sprint(res.AggGlobal))
	}
	return s
}

func (b *batchInst) verify(s *samples) error {
	ref, err := newReference(b.g, b.spec.App)
	if err != nil {
		return err
	}
	for _, agg := range b.aggs {
		if !ref.agrees(b.spec.App, agg, nil) {
			s.failed++
		}
	}
	return nil
}

func (b *batchInst) close() {
	if rs, ok := b.sess.(*cluster.RemoteSession); ok {
		closeRemote(rs, b.workers)
		return
	}
	b.sess.Close()
}

// ---- serve-tiny-open --------------------------------------------------------

// serveInst is a daemon over a tiny resident graph, driven open loop.
type serveInst struct {
	g    *graph.Graph
	srv  *server.Server
	cl   *client
	rate float64
	seed int64
	got  []served // every timed arrival's outcome, for the oracle
}

// The daemons' serving shape: gminerd's defaults with a deeper queue. The
// dynamic daemon and the ladder's HTTP rung turn the result cache off, so
// that every job computes.
var (
	serveConfig    = server.Config{MaxConcurrentJobs: 2, MaxQueueDepth: 64, ResultCacheEntries: 256}
	dynServeConfig = server.Config{MaxConcurrentJobs: 2, MaxQueueDepth: 64, ResultCacheEntries: -1}
)

func setupServe(w workload, g *graph.Graph, sz sizes, seed int64, rec *recorder) (instance, error) {
	sv := &serveInst{g: g, rate: sz.rate, seed: seed}
	var err error
	if _, sv.srv, sv.cl, err = startDaemon(g, w.config(sz), serveConfig, rec); err != nil {
		return nil, err
	}
	// Warm-up computes every hot spec once, so the hot set is resident in
	// the result cache when the clock starts, as it is on a daemon that has
	// been up for a while.
	for _, app := range servedApps {
		for hot := int64(1); hot <= hotSeeds; hot++ {
			if out := sv.cl.runJob(server.JobRequest{Spec: jobspec.Spec{App: app, Seed: hot}}, -1); out.err != nil {
				sv.close()
				return nil, fmt.Errorf("warm-up job: %w", out.err)
			}
		}
	}
	return sv, nil
}

// startDaemon brings up a warm session, the job server over it on an
// ephemeral loopback port, and a client for it.
func startDaemon(g *graph.Graph, ccfg cluster.Config, scfg server.Config, rec *recorder) (*cluster.Session, *server.Server, *client, error) {
	sess, err := cluster.NewSession(g, ccfg)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := server.New(sess, scfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		sess.Close()
		return nil, nil, nil, err
	}
	return sess, srv, newClient(addr, rec), nil
}

func (sv *serveInst) measure(d time.Duration) *samples {
	plan := arrivalPlan(sv.rate, int(sv.rate*d.Seconds()), sv.seed, 0)
	s, got := sv.openLoop(plan, -1)
	sv.got = got
	return s
}

// openLoop sends every arrival at its due time whether or not earlier
// jobs have completed, and times each job from when it was due: a stall
// in the daemon shows as latency of the arrivals behind it, never as a
// slower generator.
func (sv *serveInst) openLoop(plan []arrival, parent int) (*samples, []served) {
	s := &samples{attempted: len(plan), lateMS: make([]float64, len(plan))}
	got := make([]served, len(plan))
	lat := make([]float64, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range plan {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		s.lateMS[i] = msSince(due)
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			got[i] = sv.cl.runJob(a.req, parent)
			lat[i] = msSince(due)
		}(i, a)
	}
	wg.Wait()
	for i := range got {
		if got[i].err != nil {
			s.failed++
			continue
		}
		s.jobMS = append(s.jobMS, lat[i])
	}
	return s, got
}

func (sv *serveInst) verify(s *samples) error {
	ref, err := newReference(sv.g, servedApps...)
	if err != nil {
		return err
	}
	for _, out := range sv.got {
		if out.err == nil && !ref.agrees(out.app, out.result.Aggregate, out.result.Records) {
			s.failed++
		}
	}
	return nil
}

func (sv *serveInst) close() {
	sv.cl.close()
	sv.srv.Shutdown()
}

// ---- dyn-standing-mix -------------------------------------------------------

// dynInst is a dynamic daemon with two standing queries parked, fed a
// seeded mutation stream; every epoch is one mutation batch followed by
// one ad-hoc triangle count.
type dynInst struct {
	w      workload
	sz     sizes
	seed   int64
	srv    *server.Server
	sess   *cluster.Session
	cl     *client
	stream []dyngraph.Batch
	bodies [][]byte // the stream, encoded once in set-up
	next   int      // first batch not yet applied

	cdSet  map[string]struct{} // standing cd match set, folded from its deltas
	tcAgg  string              // standing tc aggregate after the latest epoch
	epochs []dynEpoch          // timed epochs, for the oracle
}

// dynEpoch is what one timed epoch returned.
type dynEpoch struct {
	batch      int    // index of the batch this epoch applied
	standingTC string // the standing tc aggregate its delta reported
	adhocTC    string // the ad-hoc job's aggregate

	rebuilt int     // workers whose vertex tables the batch rebuilt
	roundMS float64 // time the standing delta rounds took, summed
}

const (
	standingTC = "standing-tc"
	standingCD = "standing-cd"
)

func setupDyn(w workload, g *graph.Graph, sz sizes, seed int64, rec *recorder) (instance, error) {
	d := &dynInst{w: w, sz: sz, seed: seed, cdSet: map[string]struct{}{}}
	// The stream samples deletions from the initial adjacency, so it is
	// drawn before the daemon starts mutating g in place.
	d.stream = mutationStream(g, sz, seed)
	for _, b := range d.stream {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, body)
	}
	var err error
	if d.sess, d.srv, d.cl, err = startDaemon(g, w.config(sz), dynServeConfig, rec); err != nil {
		return nil, err
	}
	if err := d.parkStanding(); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < sz.warmEpochs; i++ {
		if _, err := d.epoch(nil, -1); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up epoch: %w", err)
		}
	}
	return d, nil
}

func (d *dynInst) parkStanding() error {
	for _, q := range [][2]string{{"tc", standingTC}, {"cd", standingCD}} {
		if err := d.cl.park(q[0], q[1]); err != nil {
			return err
		}
	}
	base, err := d.cl.result(standingCD)
	if err != nil {
		return err
	}
	for _, rec := range base.Records {
		d.cdSet[rec] = struct{}{}
	}
	return nil
}

// epoch applies the next batch over HTTP, folds the standing deltas it
// returns, then runs one ad-hoc tc job. With s non-nil the two operations
// are counted and timed into it.
func (d *dynInst) epoch(s *samples, parent int) (dynEpoch, error) {
	ep := dynEpoch{batch: d.next}
	span := d.cl.rec.begin("epoch", parent, "")
	defer d.cl.rec.end(span)

	start := time.Now()
	mr, err := d.cl.mutate(d.bodies[d.next], span)
	if s != nil {
		s.attempted++
	}
	if err == nil && len(mr.Standing) != 2 {
		err = fmt.Errorf("epoch %d: %d standing deltas, want 2", mr.Epoch, len(mr.Standing))
	}
	if err != nil {
		return ep, err
	}
	if s != nil {
		s.applyMS = append(s.applyMS, msSince(start))
	}
	d.next++
	ep.rebuilt = len(mr.RebuiltWorkers)
	for _, doc := range mr.Standing {
		ep.roundMS += doc.ElapsedSeconds * 1e3
		switch doc.JobID {
		case standingTC:
			d.tcAgg, ep.standingTC = doc.Aggregate, doc.Aggregate
		case standingCD:
			for _, rec := range doc.Added {
				d.cdSet[rec] = struct{}{}
			}
			for _, rec := range doc.Retracted {
				delete(d.cdSet, rec)
			}
		}
	}

	start = time.Now()
	var req server.JobRequest
	req.App = "tc"
	out := d.cl.runJob(req, span)
	if s != nil {
		s.attempted++
	}
	if out.err != nil {
		return ep, out.err
	}
	if s != nil {
		s.jobMS = append(s.jobMS, msSince(start))
	}
	ep.adhocTC = out.result.Aggregate
	return ep, nil
}

func (d *dynInst) measure(dur time.Duration) *samples {
	s := &samples{}
	for deadline := time.Now().Add(dur); time.Now().Before(deadline) && d.next < len(d.bodies); {
		ep, err := d.epoch(s, -1)
		if err != nil {
			// A refused batch or a failed job: count it and stop, the
			// stream cannot be replayed past a hole.
			s.failed++
			break
		}
		d.epochs = append(d.epochs, ep)
	}
	return s
}

// verify replays the applied stream on a fresh copy of the input graph.
// Every timed epoch's ad-hoc count and standing tc aggregate must equal
// the plan's count on the replayed graph at that epoch; at the final
// epoch the standing cd match set folded from its deltas must equal the
// daemon's own accumulated set, a fresh snapshot job's records and the
// sequential reference.
func (d *dynInst) verify(s *samples) error {
	replay := d.w.graph(d.sz, d.seed)
	byBatch := make(map[int]dynEpoch, len(d.epochs))
	for _, ep := range d.epochs {
		byBatch[ep.batch] = ep
	}
	want := ""
	for i := 0; i < d.next; i++ {
		dyngraph.ApplyToGraph(replay, d.stream[i])
		ep, timed := byBatch[i]
		if !timed && i != d.next-1 {
			continue
		}
		csr, err := kernels.Build(replay)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		n, err := plan.Count(csr, plan.Triangle())
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		want = fmt.Sprint(n)
		if timed && (ep.adhocTC != want || ep.standingTC != want) {
			s.failed++
		}
	}
	if d.tcAgg != want {
		s.failed++
	}

	folded := make([]string, 0, len(d.cdSet))
	for rec := range d.cdSet {
		folded = append(folded, rec)
	}
	sort.Strings(folded)
	parked, err := d.cl.result(standingCD)
	if err != nil {
		return err
	}
	var req server.JobRequest
	req.App = "cd"
	fresh := d.cl.runJob(req, -1)
	if fresh.err != nil {
		return fresh.err
	}
	seq, err := refRecords(replay, "cd")
	if err != nil {
		return err
	}
	for _, got := range [][]string{parked.Records, fresh.result.Records, seq} {
		if !slices.Equal(folded, got) {
			s.failed++
		}
	}
	return nil
}

func (d *dynInst) close() {
	d.cl.close()
	d.srv.Shutdown()
}
