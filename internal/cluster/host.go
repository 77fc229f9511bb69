package cluster

import (
	"fmt"
	"sync"
	"time"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/trace"
	"gminer/internal/transport"
)

// workerHost is where one job's K engine workers live. A job always runs
// on a session and a session always drives its workers through this seam;
// the deployment shape — goroutines of this process, or other OS processes
// behind the control channel — is the implementation, not a second engine.
//
// A job runs in attempts. The first starts at launch; every rollback
// (Job.rollback) retires the attempt — every worker, not only the lost one —
// and starts the next on a fresh mux channel, all of its workers restored
// from one committed epoch or all fresh.
type workerHost interface {
	// start brings the current attempt's worker up on slot i, restored from
	// ref, the slot's snapshot in the attempt's pinned epoch; nil is a fresh
	// start. A snapshot that cannot be restored is an error, never a fresh
	// start beside workers restored at the pin.
	start(i int, ref *resumeEpochRef) error
	// holds reports whether slot i can restore the committed epoch.
	holds(i int, epoch int64) bool
	// kill crashes the job's worker on slot i like a failed machine: its
	// pipeline stops without flushing or shipping anything, and whatever
	// was in flight to it is lost.
	kill(i int)
	// lost reports whether slot i's worker is known lost, which is what
	// rolls the job back. A worker the failure detector merely suspects is
	// not: it may be alive, only slow to report.
	lost(i int) bool
	// retire ends the current attempt like a crash of every worker: nothing
	// is flushed or shipped. eps are the next attempt's worker endpoints.
	retire(eps []transport.Endpoint)
	// stop ends every worker's pipeline once the master has terminated.
	stop()
	// collect waits for the stopped workers and returns each slot's final
	// records, counters and last checkpoint error.
	collect() ([]jobResultMsg, error)
}

// buildWorker is the one worker build routine: worker id of a job, restored
// from ref — its snapshot loaded, verified against the commit-time checksum
// and decoded, a failure traced as EvRestoreFail and returned — or, with no
// ref, fresh, its tasks-done count at zero.
func buildWorker(id int, cfg Config, a core.Algorithm, vt vertexTables, ep transport.Endpoint,
	counters *metrics.Counters, sink *snapshotSink, ref *resumeEpochRef) (*Worker, error) {
	var snap *workerSnapshot
	var err error
	if ref == nil {
		counters.SetTasksDone(0)
	} else if snap, err = sink.loadWith(id, ref.Epoch, ref.CRC); err == nil {
		var w *Worker
		if w, err = newWorker(id, cfg, a, vt.dir, vt.locals[id], ep, counters, sink, snap); err == nil {
			return w, nil
		}
	}
	if err != nil {
		cfg.Tracer.Handle(id, trace.CompCheckpoint).Event(trace.EvRestoreFail, uint64(ref.Epoch))
		return nil, fmt.Errorf("cluster: restore: worker %d: no usable committed epoch: %w", id, err)
	}
	return newWorker(id, cfg, a, vt.dir, vt.locals[id], ep, counters, sink, nil)
}

// result is what a finished worker contributes to the job's Result.
func (w *Worker) result(counters *metrics.Counters) jobResultMsg {
	res := jobResultMsg{Worker: w.id, Records: w.takeResults(), Counters: counters.Snapshot(),
		ResidentLists: w.dir.residentLists, ResidentBytes: w.dir.residentBytes, ResidentRows: w.dir.residentRows}
	if err := w.lastCheckpointErr(); err != nil {
		res.CkptErr = err.Error()
	}
	return res
}

// orientedView caches G⁺ — the degree-oriented view of the resident graph
// (graph.Orient) — and the vertex tables over it, resident set included, and
// the resident core (kernels.ResidentCore, nil when the view offers none) for
// one graph epoch: pure functions of the frozen graph and the partition,
// built by the first job that mines G⁺ after start-up or a mutation epoch —
// after a mutation, G⁺ patched from the previous epoch's — and shared
// read-only by every later one. Every process of a cluster cuts
// the same ones.
type orientedView struct {
	mu    sync.Mutex
	epoch int64
	g     *graph.Graph
	// pending holds every vertex the mutation batches since g's epoch
	// touched — ApplyMutations hands each batch's set to follow — the rows
	// the next cut patches g on (graph.Reorient) rather than orienting the
	// whole graph again. recut counts the rows the last cut cut.
	pending map[graph.VertexID]struct{}
	recut   int
	core    *kernels.ResidentCore
	vertexTables
}

// follow records the vertices one mutation batch touched, for the next cut
// to patch. Before the first cut there is nothing to patch; once the batches
// have touched more vertices than the view holds, a patch would cut every
// row anyway, so the view is dropped rather than kept with its set.
func (o *orientedView) follow(touched map[graph.VertexID]struct{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.g == nil {
		return
	}
	if o.pending == nil {
		o.pending = touched
	} else {
		for id := range touched {
			o.pending[id] = struct{}{}
		}
	}
	if len(o.pending) > o.g.NumVertices() {
		o.g, o.pending, o.core, o.vertexTables = nil, nil, nil, vertexTables{}
	}
}

// tables honours plan p — algorithm a's, read once for the job — on epoch
// `epoch` of g, before any seeding, and returns the job's vertex tables by
// worker: base — or, if p mines the oriented graph, the tables over G⁺
// (base's scan for each worker base has one for). Those are what seeding,
// to_pull, pull serving and restore run on, so forward lists are all such a
// job's tasks, caches and wire carry. A plan that takes the label column is
// handed the epoch's replicated one (labels are the same in both views). A
// plan that asks for neither — the zero plan of an algorithm with no planned
// path — is offered nothing and runs on base.
func (o *orientedView) tables(p core.Plan, g *graph.Graph, assign *partition.Assignment,
	epoch int64, base vertexTables) vertexTables {
	if p.Labels != nil {
		p.Labels(base.dir.labels)
	}
	if p.Oriented == nil {
		return base
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.g == nil || o.epoch != epoch {
		o.g, o.recut = graph.Reorient(g, o.g, o.pending)
		o.epoch, o.pending = epoch, nil
		o.cut(assign, base)
	}
	p.Oriented(o.g, o.core)
	return o.vertexTables
}

// cut builds the tables and the resident core over the freshly oriented view.
// G⁺ has base's vertices, owners and labels, so each worker's scan is base's
// and only its footprint, summed in one pass over the view, differs. The
// hottest forward lists stay on every worker, up to the weight of the
// per-vertex columns every worker holds, and the core re-expresses them as
// bit rows when that pays; every worker's account carries both.
func (o *orientedView) cut(assign *partition.Assignment, base vertexTables) {
	foot := make([]int64, len(base.locals))
	dir := newDirectory(o.g, assign)
	for id, w := range dir.owners {
		if w >= 0 {
			foot[w] += dir.verts[id].FootprintBytes()
		}
	}
	ids, refs := graph.HotLists(o.g, graph.ResidentBudgetPerVertex*int64(o.g.NumVertices()))
	dir.keepResident(ids, foot)
	o.core = kernels.NewResidentCore(o.g, ids, refs)
	if o.core != nil {
		dir.residentRows = o.core.Rows()
		for w := range foot {
			foot[w] += o.core.Bytes()
		}
	}
	o.vertexTables = vertexTables{dir: dir, locals: make([]*localTable, len(base.locals))}
	for i, lt := range base.locals {
		if lt != nil {
			o.locals[i] = &localTable{ids: lt.ids, footprint: foot[i]}
		}
	}
}

// goroutineHost runs the job's workers as Worker structs in this process.
// It takes any core.Algorithm value, since nothing crosses a process
// boundary. Once collect has the workers' results it lets go of everything
// it held — workers (caches, stores, queues, spillers), algorithm, vertex
// tables, endpoints and the job itself — so a finished *Job pins no engine
// state and no epoch's view. Once stop has run, start and kill do nothing.
type goroutineHost struct {
	mu      sync.Mutex
	j       *Job
	algo    core.Algorithm
	tables  vertexTables         // the session's shared partition views
	eps     []transport.Endpoint // the current attempt's
	workers []*Worker
	stopped bool
}

func (h *goroutineHost) start(i int, ref *resumeEpochRef) error {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return nil
	}
	j, a, tables, ep := h.j, h.algo, h.tables, h.eps[i]
	h.mu.Unlock()
	w, err := buildWorker(i, j.cfg, a, tables, ep, j.counters[i], j.sink, ref)
	if err != nil {
		return err
	}
	w.failFn = func(err error) { j.cancelWith(fmt.Errorf("cluster: worker %d: %w", i, err)) }
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		// Lost a race with teardown: nobody would ever stop this worker.
		w.stop()
		w.spiller.Close()
		return nil
	}
	h.workers[i] = w
	w.start()
	return nil
}

func (h *goroutineHost) holds(i int, epoch int64) bool {
	_, err := h.j.sink.load(i, epoch)
	return err == nil
}

func (h *goroutineHost) kill(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		return // the job is over: there is no pipeline left to crash
	}
	// What is queued for it dies with the attempt's channel, its spilled
	// blocks with the attempt (its retriever may be reading one now).
	if w := h.workers[i]; w != nil {
		w.kill()
	}
}

// lost: the goroutine host's workers die only by kill.
func (h *goroutineHost) lost(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.stopped && h.workers[i] != nil && h.workers[i].killed.Load()
}

// retire kills every worker of the attempt and waits until none runs, so
// none of them touches the job's counters or sink beside the next attempt.
// The attempt's channel is closed first (Job.rollback): that is what ends
// each comm loop's wait.
func (h *goroutineHost) retire(eps []transport.Endpoint) {
	h.mu.Lock()
	workers := h.workers
	h.workers, h.eps = make([]*Worker, len(workers)), eps
	h.mu.Unlock()
	for _, w := range workers {
		if w != nil {
			w.kill()
		}
	}
	for _, w := range workers {
		if w != nil {
			w.wg.Wait()
			w.spiller.Close()
		}
	}
}

func (h *goroutineHost) stop() {
	h.mu.Lock()
	h.stopped = true
	workers := h.workers
	h.mu.Unlock()
	for _, w := range workers {
		if w != nil {
			w.stop()
		}
	}
}

// collect runs after the job's mux channel closed, which is what unblocks
// the comm loops. It is the host's last act: the results taken, it drops
// the workers and everything else of the engine.
func (h *goroutineHost) collect() ([]jobResultMsg, error) {
	h.mu.Lock()
	j, workers := h.j, h.workers
	h.j, h.algo, h.tables, h.eps, h.workers = nil, nil, vertexTables{}, nil, nil
	h.mu.Unlock()
	out := make([]jobResultMsg, len(workers))
	for i, w := range workers {
		if w == nil {
			continue
		}
		w.wg.Wait()
		w.spiller.Close()
		out[i] = w.result(j.counters[i])
	}
	return out, nil
}

// processHost drives the job's workers in other OS processes over the
// coordinator's control channel: ctrlJobStart builds the worker from a
// workload spec (a core.Algorithm value cannot cross a process boundary)
// and the attempt's pinned epoch, ctrlJobStop stops or kills it,
// ctrlJobResult ships its final records back. On top of what the goroutine
// host does it adds slots (a worker can only start once a process has
// joined its slot) and fencing (a result counts only if it comes from the
// generation the job was last started on).
type processHost struct {
	c    *coordinator
	j    *Job
	spec jobspec.Spec

	mu sync.Mutex
	// started is the generation of slot i's process when the job's worker
	// was last started there (0: never), and attempt the job's channel then
	// (0 once kill reached it). A draining worker ships a partial result at
	// detach; the job must not look complete until the replacement, started
	// at a later generation, supersedes it.
	started []int64
	attempt []uint64
	results []jobResultMsg // by slot; Gen 0 = nothing delivered yet
	stopped bool
	arrived chan struct{} // poked on every delivery
}

// start is a no-op on a slot no process has joined yet: the join handshake
// starts every live job on the newcomer. holds trusts the file names a
// hello listed, so a torn pinned file fails the job (naming the worker)
// when the worker restores it.
func (h *processHost) start(i int, ref *resumeEpochRef) error {
	gen, joined := h.c.slotState(i)
	h.mu.Lock()
	if h.stopped || !joined {
		h.mu.Unlock()
		return nil
	}
	ch := h.j.ch.Load()
	h.started[i], h.attempt[i] = gen, ch
	h.mu.Unlock()
	return h.c.ctl.Send(i, ctrlJobStart, encodeCtrl(jobStartMsg{
		Channel:                ch,
		JobID:                  h.j.ID(),
		Spec:                   h.spec,
		CheckpointEverySeconds: h.j.cfg.CheckpointEvery.Seconds(),
		Resume:                 ref,
		Chaos:                  h.j.cfg.Chaos.Profile(),
	}))
}

// holds: slot i's process claimed the epoch's file at join, or acked the
// epoch itself (its generation is the one the commit recorded). The
// commit-time CRC still decides at restore.
func (h *processHost) holds(i int, epoch int64) bool {
	h.c.mu.Lock()
	st := h.c.slots[i]
	h.c.mu.Unlock()
	return st.Joined && (st.held[h.j.ID()][epoch] || h.j.sink.manifestView().genFor(epoch, i) == int64(st.Generation))
}

func (h *processHost) kill(i int) {
	h.mu.Lock()
	h.attempt[i] = 0
	h.mu.Unlock()
	if _, joined := h.c.slotState(i); joined {
		_ = h.c.ctl.Send(i, ctrlJobStop, encodeCtrl(jobStopMsg{Channel: h.j.ch.Load(), JobID: h.j.ID(), Kill: true}))
	}
}

// lost: slot i's process is not running the attempt's worker — killed,
// never started there, or the process is a replacement. A slot whose
// process has gone silent is not lost until a replacement joins it: the
// coordinator's lease sweep only marks it lost in the registry, which lets
// one claim it, and the join rolls the job back.
func (h *processHost) lost(i int) bool {
	gen, joined := h.c.slotState(i)
	h.mu.Lock()
	defer h.mu.Unlock()
	return joined && (h.started[i] != gen || h.attempt[i] != h.j.ch.Load())
}

// retire forgets what the attempt's workers delivered. Each process ends
// its worker of the attempt when the next attempt's start reaches it
// (WorkerProcess.startJob); until then the attempt's frames die at the
// closed channel.
func (h *processHost) retire([]transport.Endpoint) {
	h.mu.Lock()
	defer h.mu.Unlock()
	clear(h.results)
}

// stop backstops the master's msgStop broadcast, in case the engine frame
// was dropped on a severed connection, and bars late joiners from
// restarting a job whose master is gone.
func (h *processHost) stop() {
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
	stop := encodeCtrl(jobStopMsg{Channel: h.j.ch.Load(), JobID: h.j.ID()})
	for i := range h.started {
		if _, joined := h.c.slotState(i); joined {
			_ = h.c.ctl.Send(i, ctrlJobStop, stop)
		}
	}
}

// deliver records one worker's shipped result (the control loop has
// already refused fenced-out generations).
func (h *processHost) deliver(m *jobResultMsg) {
	if m.Worker < 0 || m.Worker >= len(h.results) {
		return
	}
	h.mu.Lock()
	h.results[m.Worker] = *m
	h.mu.Unlock()
	select {
	case h.arrived <- struct{}{}:
	default:
	}
}

// collect blocks until every slot's result arrived from the generation the
// job last started on, or the session's result timeout passes — then it
// settles for whatever each slot delivered last and fails the job only if
// some slot delivered nothing at all.
func (h *processHost) collect() ([]jobResultMsg, error) {
	timeout := h.c.rcfg.resultTimeout
	deadline := time.After(timeout)
	for {
		h.mu.Lock()
		final := true
		var missing []int
		for i, r := range h.results {
			if r.Gen == 0 {
				missing = append(missing, i)
			}
			final = final && r.Gen > 0 && r.Gen == h.started[i]
		}
		out := append([]jobResultMsg(nil), h.results...)
		h.mu.Unlock()
		if final {
			return out, nil
		}
		select {
		case <-h.arrived:
		case <-deadline:
			if len(missing) > 0 {
				return out, fmt.Errorf("cluster: remote job: no result from workers %v within %s", missing, timeout)
			}
			return out, nil
		}
	}
}
