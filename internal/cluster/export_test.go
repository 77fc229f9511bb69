package cluster

import (
	"cmp"
	"slices"
	"time"

	"gminer/internal/algo"
	"gminer/internal/chaos"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/store"
	"gminer/internal/wire"
)

// UndirectedTC is TC whose Plan opens the job and declares nothing, so a
// goroutine-host session runs it on the undirected graph: the arm a runtime
// without G⁺ runs. Worker processes rebuild a job's algorithm from its spec,
// so the process host never runs it.
type UndirectedTC struct{ *algo.TriangleCount }

// Plan implements core.Planner.
func (u UndirectedTC) Plan() core.Plan {
	u.TriangleCount.Plan()
	return core.Plan{}
}

// NewUndirectedTC returns TC on its undirected arm.
func NewUndirectedTC() UndirectedTC { return UndirectedTC{algo.NewTriangleCount()} }

// Knobs are the engine constants a test may shape a scenario with; a zero
// field keeps the default.
type Knobs struct {
	Heartbeat        time.Duration
	StealBatch       int
	StealLocalityMax float64 // Tr; 2 lets every task migrate
}

// Tune sets cfg's engine constants to k's non-zero fields.
func Tune(cfg *Config, k Knobs) {
	cfg.progressInterval = cmp.Or(k.Heartbeat, cfg.progressInterval)
	cfg.stealBatch = cmp.Or(k.StealBatch, cfg.stealBatch)
	cfg.stealLocalityMax = cmp.Or(k.StealLocalityMax, cfg.stealLocalityMax)
}

// HoldLastSeed is the deterministic hold of the fault-injection soaks: every
// worker built from cfg — in this process or a worker process started with
// it, first incarnation or replacement — seeds all but its last range, which
// it withholds until release closes. Until then the job has work pending on
// every slot and cannot finish under the test, whatever the engine's speed.
func HoldLastSeed(cfg *Config, release <-chan struct{}) { cfg.seedHold = holdLast(release) }

// holdLast is a seedHold that withholds the scan's last range until release
// closes.
func holdLast(release <-chan struct{}) func(worker int, last bool) bool {
	return func(_ int, last bool) bool { return last && !closed(release) }
}

// HoldSeeds makes every worker built from cfg withhold each seed range while
// hold, asked with the worker's ID and whether the range is its scan's last,
// answers true.
func HoldSeeds(cfg *Config, hold func(worker int, last bool) bool) { cfg.seedHold = hold }

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// residentIDs lists the resident set of the view as its directory answers
// for it — the vertices a worker other than the owner reads in place —
// ascending; nil before the first job that mined the view (and with one
// worker, where nobody is another worker).
func (o *orientedView) residentIDs() []graph.VertexID {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dir == nil || len(o.locals) < 2 {
		return nil
	}
	var ids []graph.VertexID
	o.g.ForEach(func(v *graph.Vertex) bool {
		if other := (o.dir.owner(v.ID) + 1) % len(o.locals); o.dir.local(v.ID, other) != nil {
			ids = append(ids, v.ID)
		}
		return true
	})
	slices.Sort(ids)
	return ids
}

// residentCore sizes the view's resident core — its bit rows — and names it
// by its fingerprint; (0, 0) before the first job that mined the view, and on
// a view that offers none.
func (o *orientedView) residentCore() (rows int, fingerprint uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.core == nil {
		return 0, 0
	}
	return o.core.Rows(), o.core.Fingerprint()
}

// patchState reports how many rows the view's last cut cut (|V| for a full
// orientation) and how many touched vertices wait for the next one.
func (o *orientedView) patchState() (recut, pending int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.recut, len(o.pending)
}

// ResidentIDs is the resident set of the session's current oriented view.
func (s *Session) ResidentIDs() []graph.VertexID { return s.oriented.residentIDs() }

// ResidentIDs is the resident set of the process's oriented view.
func (wp *WorkerProcess) ResidentIDs() []graph.VertexID { return wp.oriented.residentIDs() }

// ResidentCore is the resident core of the session's current oriented view.
func (s *Session) ResidentCore() (rows int, fingerprint uint64) { return s.oriented.residentCore() }

// ResidentCore is the resident core of the process's oriented view.
func (wp *WorkerProcess) ResidentCore() (rows int, fingerprint uint64) {
	return wp.oriented.residentCore()
}

// SeedEagerly makes cfg's workers generate every seed task that waits for
// data before processing starts, the paper's behaviour, instead of taking
// seed ranges only while the alive tasks are at most half the store's spill
// threshold.
func SeedEagerly(cfg *Config) { cfg.eagerSeeding = true }

// ResultTimeout is a RemoteSessionConfig whose finished jobs wait up to d
// (default 60 s) for every worker process's final records: slow jobs on a
// loaded machine get longer.
func ResultTimeout(d time.Duration) RemoteSessionConfig {
	return RemoteSessionConfig{resultTimeout: d}
}

// HeartbeatChaos returns opt with c's faults injected into the worker
// process's heartbeat path only.
func HeartbeatChaos(opt WorkerOptions, c *chaos.Controller) WorkerOptions {
	opt.heartbeatChaos = c
	return opt
}

// StridedIDs copies g, labels and attributes included, with every external
// ID x relabelled x·1009 + 5 000 000 007, and returns the relabelling. It is
// monotone, so the copy numbers its vertices exactly as g does: everything
// the engine computes is the same, and records name the relabelled IDs.
func StridedIDs(g *graph.Graph) (*graph.Graph, func(graph.VertexID) graph.VertexID) {
	relabel := func(x graph.VertexID) graph.VertexID { return x*1009 + 5_000_000_007 }
	ext := func(id graph.VertexID) graph.VertexID { return relabel(g.External(id)) }
	out := graph.New(g.NumVertices())
	g.ForEach(func(v *graph.Vertex) bool {
		nv := out.AddVertex(ext(v.ID))
		nv.Label, nv.Attrs = v.Label, v.Attrs
		for _, u := range v.Adj {
			out.AddEdge(ext(v.ID), ext(u))
		}
		return true
	})
	out.Freeze()
	return out, relabel
}

// taskList is tasks as one core.EncodeTasks list: a migration batch, or a
// snapshot's task payload.
func taskList(tasks []*core.Task, codec core.ContextCodec) []byte {
	w := wire.NewWriter(256)
	core.EncodeTasks(w, tasks, codec)
	return w.Bytes()
}

// popAll takes every task out of s, in store order, as the retriever would.
func popAll(s *store.Store) []*core.Task {
	var out []*core.Task
	for {
		t, ok := s.TryPop()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// jobWorker is the engine worker of job id in the process, nil when none
// runs.
func (wp *WorkerProcess) jobWorker(id string) *Worker {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wj := wp.jobs[id]; wj != nil {
		return wj.w
	}
	return nil
}
