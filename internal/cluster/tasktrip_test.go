package cluster

import (
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
)

// noUpdate seeds like the algorithm it wraps and does nothing in Update:
// what is left of a task's trip is the engine's share of it.
type noUpdate struct{ *algo.TriangleCount }

func (noUpdate) Update(*core.Task, []*graph.Vertex, core.Env) {}

// taskTrip is one worker of a 2-worker Hash partition of an oriented
// RMAT-14 — about half of every task's candidates are remote — set up so a
// task's whole trip runs on the calling goroutine: the remote vertices are
// already cached (every pull is a hit) and sends go nowhere.
type taskTrip struct {
	w     *Worker
	cands []*graph.Vertex
}

func newTaskTrip(tb testing.TB) *taskTrip {
	tb.Helper()
	gplus := graph.Orient(gen.RMAT(gen.RMATConfig{Scale: 14, Edges: 250_000, Seed: 42}))
	assign, err := partition.Hash{}.Partition(gplus, 2)
	if err != nil {
		tb.Fatal(err)
	}
	tc := algo.NewTriangleCount()
	core.PlanOf(tc).Oriented(gplus, nil)
	cfg := Config{Workers: 2, Threads: 1, UseLSH: true, CacheCapacity: gplus.NumVertices(), progressInterval: time.Hour}.Defaults()
	vt := newVertexTables(gplus, assign, allWorkers(2))
	w, err := newWorker(0, cfg, noUpdate{tc}, vt.dir, vt.locals[0], discardEndpoint{}, &metrics.Counters{}, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.stop(); w.spiller.Close() })
	gplus.ForEach(func(v *graph.Vertex) bool {
		if assign.Owner(v.ID) != 0 {
			w.cache.ForceInsert(v)
			w.cache.Release(v.ID)
		}
		return true
	})
	return &taskTrip{w: w}
}

// run sends every task of the worker on its trip and returns how many there
// were and how many of them waited in the store. A ready task — nothing to
// pull, and the steal policy keeps it — goes intake → CPQ → resolve →
// (no-op) Update → release; any other goes intake → buffer → store →
// dispatch → CPQ → resolve → Update → release.
func (tt *taskTrip) run(tb testing.TB) (tasks, stored int) {
	w := tt.w
	spawn := func(t *core.Task) {
		w.assignID(t)
		w.intake(t, false)
	}
	for _, id := range w.localIDs {
		w.algo.Seed(w.dir.local(id, w.id), spawn)
	}
	w.flushBatch(w.buffer.drain())
	stored = w.store.Size()
	for w.cpq.len() > 0 {
		t, _ := w.cpq.pop()
		tt.cands = w.runTask(t, tt.cands)
		tasks++
	}
	for {
		t, ok := w.store.TryPop()
		if !ok {
			break
		}
		if w.runsNow(t) {
			tb.Fatalf("task %d has nothing to pull and stays on this worker, yet it waited in the store", t.ID)
		}
		w.dispatch(t)
		if t, ok = w.cpq.pop(); !ok {
			tb.Fatal("a task with every candidate cached did not become ready")
		}
		tt.cands = w.runTask(t, tt.cands)
		tasks++
	}
	if n := w.inflight.Load(); n != 0 {
		tb.Fatalf("%d tasks still in flight after the trip", n)
	}
	return tasks, stored
}

// BenchmarkTaskTrip prices the engine's fixed cost per task: everything a
// task goes through on one worker except the mining, over both routes — the
// ready tasks' straight to the CPQ and the others' through the store.
func BenchmarkTaskTrip(b *testing.B) {
	tt := newTaskTrip(b)
	tasks, _ := tt.run(b) // warm: grown buffers, store storage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt.run(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
	b.ReportMetric(float64(testing.AllocsPerRun(1, func() { tt.run(b) }))/float64(tasks), "allocs/task")
}

// TestTaskTripAllocsBounded pins the trip's allocations per task: the task
// and its subgraph (the algorithm's), to_pull, and for a task that waits in
// the store its key and the pulled pointers — and nothing per candidate or
// per insert. A map per lookup or a fresh store head per batch shows up here
// as a multiple. Both routes carry tasks: the ready ones never touch the
// store (run fails any that does), the rest all wait there.
func TestTaskTripAllocsBounded(t *testing.T) {
	tt := newTaskTrip(t)
	tasks, stored := tt.run(t)
	if stored == 0 || stored == tasks {
		t.Fatalf("%d of %d tasks waited in the store: the trip must cover both routes", stored, tasks)
	}
	perTask := testing.AllocsPerRun(3, func() { tt.run(t) }) / float64(tasks)
	t.Logf("%d tasks (%d through the store), %.2f allocations each", tasks, stored, perTask)
	if perTask > 6.5 && !raceEnabled {
		t.Fatalf("%.2f allocations per task, want <= 6.5", perTask)
	}
}
