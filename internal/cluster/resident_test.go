package cluster

import (
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/transport"
)

// orientedTables cuts the tables an oriented TC job of a k-worker cluster
// runs on, the way a session does: base tables scanning the workers in scan,
// then the view's.
func orientedTables(t testing.TB, g *graph.Graph, p partition.Partitioner, k int, scan []bool) (vertexTables, *orientedView, *algo.TriangleCount) {
	t.Helper()
	assign, err := p.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	view, tc := &orientedView{}, algo.NewTriangleCount()
	ot := view.tables(core.PlanOf(tc), g, assign, 0, newVertexTables(g, assign, scan))
	if view.g == nil || ot.dir.residentLists == 0 {
		t.Fatal("triangle counting got no oriented view, or one without a resident set")
	}
	return ot, view, tc
}

// The resident column is the same set on both directory arms, on every
// worker and in every process: graph.HotLists of the view at a budget of what
// the per-vertex columns every worker holds weigh. local answers for a
// resident vertex on every worker and for anything else on its owner alone,
// owner still names the owner, each worker's memory account carries the
// resident lists it does not own and the view's resident core, and those
// columns have not grown. A copy of the graph with its external IDs strided
// apart keeps the same lists and core.
func TestResidentColumn(t *testing.T) {
	if size := unsafe.Sizeof(directory{}.verts[0]) + unsafe.Sizeof(directory{}.owners[0]) + unsafe.Sizeof(graph.Vertex{}.Label); size != graph.ResidentBudgetPerVertex {
		t.Fatalf("the per-vertex columns weigh %d bytes, the resident budget %d per vertex", size, graph.ResidentBudgetPerVertex)
	}
	dense := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 9000, Seed: 5})
	strided, relabel := StridedIDs(dense)
	var byArm [2][]graph.VertexID
	var cores [2]uint64
	for arm, g := range []*graph.Graph{dense, strided} {
		gplus := graph.Orient(g)
		want, _ := graph.HotLists(gplus, graph.ResidentBudgetPerVertex*int64(g.NumVertices()))
		for _, p := range []partition.Partitioner{partition.Hash{}, partition.BDG{}} {
			const k = 3
			ot, view, _ := orientedTables(t, g, p, k, allWorkers(k))
			d := ot.dir
			assign, err := p.Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			got := view.residentIDs()
			slices.Sort(got)
			sorted := slices.Clone(want)
			slices.Sort(sorted)
			if !slices.Equal(got, sorted) || d.residentLists != len(want) {
				t.Fatalf("arm %d/%s: directory holds %d resident lists (%d marked), HotLists picks %d", arm, p.Name(), d.residentLists, len(got), len(want))
			}
			foot := make([]int64, k)
			var bytes int64
			gplus.ForEach(func(v *graph.Vertex) bool {
				_, resident := slices.BinarySearch(sorted, v.ID)
				if resident {
					bytes += v.FootprintBytes()
				}
				if d.owner(v.ID) != assign.Owner(v.ID) {
					t.Fatalf("arm %d/%s: owner(%d) = %d, the assignment says %d", arm, p.Name(), v.ID, d.owner(v.ID), assign.Owner(v.ID))
				}
				for self := 0; self < k; self++ {
					here := resident || d.owner(v.ID) == self
					if here {
						foot[self] += v.FootprintBytes()
					}
					if lv := d.local(v.ID, self); (lv != nil) != here || (here && lv != view.g.Vertex(v.ID)) {
						t.Fatalf("arm %d/%s: vertex %d (owner %d, resident %v) as seen by worker %d: %p", arm, p.Name(), v.ID, d.owner(v.ID), resident, self, lv)
					}
				}
				return true
			})
			if d.residentBytes != bytes || bytes > graph.ResidentBudgetPerVertex*int64(g.NumVertices()) {
				t.Fatalf("arm %d/%s: resident set weighs %d B by the directory, %d B by the lists, budget %d", arm, p.Name(), d.residentBytes, bytes, graph.ResidentBudgetPerVertex*g.NumVertices())
			}
			if view.core == nil || d.residentRows != view.core.Rows() {
				t.Fatalf("arm %d/%s: resident core cut = %v, directory reports %d rows", arm, p.Name(), view.core != nil, d.residentRows)
			}
			cores[arm] = view.core.Fingerprint()
			for self, lt := range ot.locals {
				if view.core != nil {
					foot[self] += view.core.Bytes()
				}
				if lt.footprint != foot[self] {
					t.Fatalf("arm %d/%s: worker %d accounts %d B of graph, its partition, the resident lists and core weigh %d", arm, p.Name(), self, lt.footprint, foot[self])
				}
			}

			// A worker process scans its own partition only; the set it cuts
			// is the session's.
			own := make([]bool, k)
			own[1] = true
			_, wpView, _ := orientedTables(t, g, p, k, own)
			if theirs := wpView.residentIDs(); !slices.Equal(theirs, view.residentIDs()) {
				t.Fatalf("arm %d/%s: a worker process marks %d lists, the session %d", arm, p.Name(), len(theirs), len(got))
			}
		}
		byArm[arm] = want
	}
	for i, id := range byArm[0] {
		if byArm[1][i] != id || strided.External(id) != relabel(dense.External(id)) {
			t.Fatalf("pick %d: the graph keeps vertex %d, its strided copy %d", i, id, byArm[1][i])
		}
	}
	if cores[0] != cores[1] {
		t.Fatal("the strided copy cuts another resident core")
	}
}

// residentKinds finds, on worker self of directory d, candidates of each
// kind: owned, resident though owned elsewhere, and remote.
func residentKinds(d *directory, g *graph.Graph, self int) (owned, resident, remote []graph.VertexID) {
	g.ForEach(func(v *graph.Vertex) bool {
		switch {
		case d.owner(v.ID) == self:
			owned = append(owned, v.ID)
		case d.local(v.ID, self) != nil:
			resident = append(resident, v.ID)
		default:
			remote = append(remote, v.ID)
		}
		return true
	})
	return owned, resident, remote
}

// A resident candidate is as local on the thief as on the victim, so it must
// not count as attachment: lr is owned / (owned + to_pull), whatever number
// of resident candidates the task has besides, and the paper's policies go by
// that. (With lr = (|cand| − |to_pull|) / |cand| the last rows read 0.75 and
// 1.0, and most TC seeds drift past the 0.9 threshold and stop migrating.)
func TestStealLocalityIgnoresResident(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 9000, Seed: 5})
	ot, view, tc := orientedTables(t, g, partition.Hash{}, 2, allWorkers(2))
	w, err := newWorker(0, Config{Workers: 2, Threads: 1}.Defaults(), tc, ot.dir, ot.locals[0], discardEndpoint{}, &metrics.Counters{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.stop(); w.spiller.Close() }()
	owned, resident, remote := residentKinds(ot.dir, view.g, 0)
	if len(owned) < 2 || len(resident) < 6 || len(remote) < 2 {
		t.Fatalf("degenerate partition: %d owned, %d resident, %d remote", len(owned), len(resident), len(remote))
	}
	cat := func(lists ...[]graph.VertexID) []graph.VertexID {
		out := slices.Concat(lists...)
		slices.Sort(out)
		return out
	}
	policy := CostPolicy{Tc: 1 << 20, Tr: 0.9}
	for _, tc := range []struct {
		name           string
		cands          []graph.VertexID
		pull, resident int
		lr             float64
		migrates       bool
	}{
		{"half owned, half remote", cat(owned[:2], remote[:2]), 2, 0, 0.5, true},
		{"and two resident", cat(owned[:2], remote[:2], resident[:2]), 2, 2, 0.5, true},
		{"and six resident", cat(owned[:2], remote[:2], resident[:6]), 2, 6, 0.5, true},
		{"all owned", cat(owned[:2]), 0, 0, 1, false},
		{"owned and resident", cat(owned[:2], resident[:6]), 0, 6, 1, false},
		{"remote and resident", cat(remote[:2], resident[:6]), 2, 6, 0, true},
		{"all resident", cat(resident[:6]), 0, 6, 0, true},
		{"no candidates", nil, 0, 0, 0, true},
		{"a dangling ID counts as it did", cat(owned[:1], remote[:1], []graph.VertexID{1 << 40}), 1, 0, 2.0 / 3, true},
	} {
		task := &core.Task{Cands: tc.cands, Resident: 99} // a stale count must not survive intake
		w.computeToPull(task)
		if len(task.ToPull) != tc.pull || task.Resident != tc.resident || task.LocalRate() != tc.lr {
			t.Fatalf("%s: %d to pull, %d resident, lr %v; want %d, %d, %v", tc.name, len(task.ToPull), task.Resident, task.LocalRate(), tc.pull, tc.resident, tc.lr)
		}
		for _, id := range task.ToPull {
			if ot.dir.local(id, 0) != nil {
				t.Fatalf("%s: ToPull holds %d, which worker 0 reads in place", tc.name, id)
			}
		}
		if policy.Eligible(task) != tc.migrates {
			t.Fatalf("%s: eligible=%v, want %v", tc.name, !tc.migrates, tc.migrates)
		}
	}

	// Restored, migrated and reloaded tasks arrive with the to_pull their
	// last worker computed; intake recomputes it against this worker's view.
	stale := &core.Task{Cands: cat(owned[:2], remote[:2], resident[:6])}
	stale.ToPull = cat(remote[:2], resident[:6], owned[:1])
	w.intake(stale, true)
	if !slices.Equal(stale.ToPull, cat(remote[:2])) || stale.Resident != 6 {
		t.Fatalf("intake kept a stale to_pull: %v (%d resident)", stale.ToPull, stale.Resident)
	}
}

// pullSpy is the counting endpoint of TestResidentNeverPulled: it records
// every ID a worker asks a peer for. (A steal payload ships no to_pull.)
type pullSpy struct {
	transport.Endpoint
	mu    *sync.Mutex
	asked map[graph.VertexID]int
}

func (p *pullSpy) Send(to int, typ uint8, payload []byte) error {
	var ids []graph.VertexID
	if typ == msgPullReq {
		_, body, _ := decodeStreamHeader(payload)
		ids, _ = decodePullReq(body)
	}
	p.mu.Lock()
	for _, id := range ids {
		p.asked[id]++
	}
	p.mu.Unlock()
	return p.Endpoint.Send(to, typ, payload)
}

// toPullSpy is triangle counting that notes what every task it updates was
// made to pull.
type toPullSpy struct {
	*algo.TriangleCount
	mu     *sync.Mutex
	pulled map[graph.VertexID]int
}

func (a *toPullSpy) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	a.mu.Lock()
	for _, id := range t.ToPull {
		a.pulled[id]++
	}
	a.mu.Unlock()
	a.TriangleCount.Update(t, cands, env)
}

// TestResidentNeverPulled: under hash partitioning about (k−1)/k of every
// forward list is remote, and the resident lists are the ones referenced
// most — yet no resident ID is ever in a pull request, in a task's to_pull
// as run or in an RCV cache, while the rest still move and the count stays
// exact.
func TestResidentNeverPulled(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 30000, Seed: 21})
	want := algo.RefTriangles(g)
	for _, workers := range []int{2, 4} {
		s, err := NewSession(g, Config{
			Workers: workers, Threads: 1, Partitioner: partition.Hash{}, UseLSH: true,
			CacheCapacity:    g.NumVertices(), // nothing is evicted: the caches remember every pull
			Stealing:         true,
			stealBatch:       4,
			stealLocalityMax: 2, // every task may migrate
			progressInterval: 500 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		a := &toPullSpy{TriangleCount: algo.NewTriangleCount(), mu: &mu, pulled: map[graph.VertexID]int{}}
		asked := map[graph.VertexID]int{}
		s.wrapEps = func(eps []transport.Endpoint) {
			for i, ep := range eps {
				eps[i] = &pullSpy{Endpoint: ep, mu: &mu, asked: asked}
			}
		}
		j, err := s.Launch(a, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		host := j.host.(*goroutineHost)
		// Wait's collect lets go of the workers: take them while the host
		// still holds them, once the master is done.
		<-j.master.doneCh
		host.mu.Lock()
		workerSet := host.workers
		host.mu.Unlock()
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		resident := s.oriented.residentIDs()
		if res.AggGlobal != any(want) || res.ResidentLists != len(resident) || len(resident) == 0 {
			t.Fatalf("w%d: %v triangles with %d resident lists reported, %d marked; want %d triangles", workers, res.AggGlobal, res.ResidentLists, len(resident), want)
		}
		if len(asked) == 0 || len(a.pulled) == 0 {
			t.Fatalf("w%d: nothing was pulled (%d IDs asked for, %d in tasks): the test is vacuous", workers, len(asked), len(a.pulled))
		}
		for _, id := range resident {
			if asked[id] != 0 || a.pulled[id] != 0 {
				t.Fatalf("w%d: resident vertex %d was asked for %d times and in %d tasks' to_pull", workers, id, asked[id], a.pulled[id])
			}
			for _, w := range workerSet {
				if _, cached := w.cache.Peek(id); cached {
					t.Fatalf("w%d: resident vertex %d sits in worker %d's RCV cache", workers, id, w.id)
				}
			}
		}
		s.Close()
	}
}

// A task's to_pull stays with the worker that computed it — a checkpoint or a
// steal payload does not carry it — and whoever takes the task in computes it
// against its own view. So a restored or stolen task never pulls a list its
// new worker reads in place, whatever the worker that wrote it out had to
// pull.
func TestResidentRestoreAndStealRecompute(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 9000, Seed: 5})
	ot, view, tc := orientedTables(t, g, partition.Hash{}, 2, allWorkers(2))
	_, resident, remote := residentKinds(ot.dir, view.g, 0)
	if len(resident) < 4 || len(remote) < 4 {
		t.Fatalf("degenerate partition: %d resident, %d remote", len(resident), len(remote))
	}
	var tasks []*core.Task
	for i := 0; i < 3; i++ {
		cands := slices.Concat(resident[i:i+2], remote[i:i+2])
		slices.Sort(cands)
		tasks = append(tasks, &core.Task{ID: uint64(i + 1), Round: 1, Cands: cands, ToPull: cands}) // as if all four were remote
	}
	check := func(how string, got []*core.Task) {
		t.Helper()
		if len(got) != len(tasks) {
			t.Fatalf("%s: %d tasks came through, want %d", how, len(got), len(tasks))
		}
		for _, task := range got {
			if len(task.ToPull) != 2 || task.Resident != 2 || task.LocalRate() != 0 {
				t.Fatalf("%s: task %d pulls %v with %d resident candidates (lr %v)", how, task.ID, task.ToPull, task.Resident, task.LocalRate())
			}
			for _, id := range task.ToPull {
				if ot.dir.local(id, 0) != nil {
					t.Fatalf("%s: task %d would pull %d, which worker 0 reads in place", how, task.ID, id)
				}
			}
		}
	}
	build := func(restore *workerSnapshot) *Worker {
		w, err := newWorker(0, Config{Workers: 2, Threads: 1}.Defaults(), tc, ot.dir, ot.locals[0], discardEndpoint{}, &metrics.Counters{}, nil, restore)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.stop(); w.spiller.Close() })
		return w
	}
	drain := func(w *Worker) []*core.Task {
		w.flushBatch(w.buffer.drain())
		return popAll(w.store)
	}

	check("restored", drain(build(&workerSnapshot{Epoch: 1, TaskBytes: taskList(tasks, tc)})))

	thief := build(nil)
	thief.handleTasks(1, taskList(tasks, tc))
	check("stolen", drain(thief))
}
