package cluster_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/partition"
	"gminer/internal/plan"
)

// sparseIDs copies g, labels and attributes included, with every ID scaled
// and offset: the ID span becomes far wider than 64·|V|, so oriented TC's
// bitmap rule and the engine's vertex directory both decline their arrays —
// forward lists go through merge/gallop, lookups through hash tables. The
// relabelling is monotone, so sorted lists stay in the same order.
func sparseIDs(g *graph.Graph) *graph.Graph {
	relabel := func(id graph.VertexID) graph.VertexID { return id*1009 + 5_000_000_007 }
	out := graph.New(g.NumVertices())
	g.ForEach(func(v *graph.Vertex) bool {
		nv := out.AddVertex(relabel(v.ID))
		nv.Label, nv.Attrs = v.Label, v.Attrs
		for _, u := range v.Adj {
			out.AddEdge(relabel(v.ID), relabel(u))
		}
		return true
	})
	out.Freeze()
	return out
}

// orientedRef is the triangle count every route must reproduce — the
// compiled plan, the sequential runs of both arms and the scalar reference
// agree on it first — plus the number of tasks each arm's job runs, by
// generic: oriented, one per vertex with at least two forward neighbors;
// generic, one per vertex with at least two higher-ID neighbors.
func orientedRef(t *testing.T, g *graph.Graph) (want int64, tasks map[bool]int64) {
	t.Helper()
	want = algo.RefTriangles(g)
	if want == 0 {
		t.Fatal("degenerate graph: no triangles")
	}
	if planned, err := plan.Count(kernels.MustBuild(g), plan.Triangle()); err != nil || planned != want {
		t.Fatalf("plan.Count = %d (%v), reference %d", planned, err, want)
	}
	tasks = map[bool]int64{}
	for _, generic := range []bool{false, true} {
		a := algo.NewTriangleCount()
		a.Generic = generic
		seq := algo.SeqRun(g, a)
		if seq.AggGlobal != any(want) {
			t.Fatalf("SeqRun generic=%v = %v, reference %d", generic, seq.AggGlobal, want)
		}
		tasks[generic] = seq.Tasks
	}
	var seeds int64
	graph.Orient(g).ForEach(func(v *graph.Vertex) bool {
		if len(v.Adj) >= 2 {
			seeds++
		}
		return true
	})
	if tasks[false] != seeds || tasks[true] == seeds {
		t.Fatalf("SeqRun ran %d tasks oriented and %d generic, the oriented graph seeds %d", tasks[false], tasks[true], seeds)
	}
	return want, tasks
}

// tcArm is the TC a spec asks for, built the way the serving layer builds it.
func tcArm(t *testing.T, g *graph.Graph, generic bool) (core.Algorithm, *jobspec.Spec) {
	t.Helper()
	sp := jobspec.Spec{App: "tc", Generic: generic}.Normalize()
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	return a, &sp
}

// coreRef is the resident core every process must cut of g's view, the way
// SeqRun cuts it: its bit rows and fingerprint, (0, 0) when the view offers
// none.
func coreRef(g *graph.Graph) (rows int, fingerprint uint64) {
	gplus := graph.Orient(g)
	ids, refs := graph.HotLists(gplus, graph.ResidentBudgetPerVertex*int64(g.NumVertices()))
	if c := kernels.NewResidentCore(gplus, ids, refs); c != nil {
		return c.Rows(), c.Fingerprint()
	}
	return 0, 0
}

func differentialGraphs() map[string]*graph.Graph {
	rmat := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 5000, Seed: 17})
	community, _ := gen.Community(gen.CommunityConfig{Communities: 50, MinSize: 5, MaxSize: 10, PIn: 0.7, Bridges: 150, Seed: 17})
	return map[string]*graph.Graph{
		"rmat": rmat, "community": community,
		"rmat-sparse-ids": sparseIDs(rmat), "community-sparse-ids": sparseIDs(community),
	}
}

// TestOrientedTCDifferential: on every deployment shape of a session, TC on
// the oriented view == TC on the generic baseline == plan.Count(Triangle)
// == SeqRun, and each job ran its own arm: the oriented job executed the
// oriented seed set with the view's resident set in place, the generic job
// the ID-order seed set with none. The
// spilling shapes seed eagerly into a 16-task store, so most tasks go through
// a spill block and come back with the to_pull they were spilled with. Every
// shape cuts the resident core SeqRun cuts (the RMAT views offer one), and its
// jobs report its rows.
func TestOrientedTCDifferential(t *testing.T) {
	for name, g := range differentialGraphs() {
		want, tasks := orientedRef(t, g)
		rows, fingerprint := coreRef(g)
		if (rows > 0) != (name == "rmat") {
			t.Fatalf("%s: the view's resident core has %d rows", name, rows)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, part := range []partition.Partitioner{partition.BDG{}, partition.Hash{}} {
				for _, stealing := range []bool{false, true} {
					for _, mode := range []string{"mem", "tcp", "spill"} {
						if mode == "tcp" && workers != 2 {
							continue
						}
						cfg := smallConfig()
						cfg.Workers, cfg.Threads, cfg.Partitioner, cfg.Stealing, cfg.UseTCP = workers, 1, part, stealing, mode == "tcp"
						if mode == "spill" {
							cfg.SpillDir, cfg.StoreMemCapacity = t.TempDir(), 16
							cluster.SeedEagerly(&cfg)
						}
						shape := fmt.Sprintf("%s/w%d/%s/steal=%v/%s", name, workers, part.Name(), stealing, mode)
						s, err := cluster.NewSession(g, cfg)
						if err != nil {
							t.Fatalf("%s: %v", shape, err)
						}
						if sparse := strings.HasSuffix(name, "-sparse-ids"); s.DenseDirectory() == sparse {
							t.Fatalf("%s: vertex directory dense=%v", shape, !sparse)
						}
						for _, generic := range []bool{false, true, false} {
							a, _ := tcArm(t, g, generic)
							j, err := s.Launch(a, cluster.JobOptions{})
							if err != nil {
								t.Fatalf("%s: %v", shape, err)
							}
							res, err := j.Wait()
							if err != nil {
								t.Fatalf("%s: %v", shape, err)
							}
							if res.AggGlobal != any(want) {
								t.Fatalf("%s generic=%v: %v triangles, want %d", shape, generic, res.AggGlobal, want)
							}
							if res.Total.TasksDone != tasks[generic] {
								t.Fatalf("%s generic=%v: the job ran %d tasks, its arm seeds %d", shape, generic, res.Total.TasksDone, tasks[generic])
							}
							if budget := 16 * int64(g.NumVertices()); generic != (res.ResidentLists == 0) || res.ResidentBytes > budget || (res.ResidentBytes > 0) != (res.ResidentLists > 0) {
								t.Fatalf("%s generic=%v: %d resident lists weighing %d B, budget %d", shape, generic, res.ResidentLists, res.ResidentBytes, budget)
							}
							if mode == "spill" && res.Total.DiskWrite == 0 {
								t.Fatalf("%s generic=%v: the job never spilled", shape, generic)
							}
							if wantRows := map[bool]int{false: rows}[generic]; res.ResidentRows != wantRows {
								t.Fatalf("%s generic=%v: %d rows reported, want %d", shape, generic, res.ResidentRows, wantRows)
							}
						}
						if r, fp := s.ResidentCore(); r != rows || fp != fingerprint {
							t.Fatalf("%s: the session's core has %d rows (%x), SeqRun's %d (%x)", shape, r, fp, rows, fingerprint)
						}
						s.Close()
					}
				}
			}
		}
	}
}

// The same differential through worker processes over loopback TCP: each
// process cuts its own view of its own copy of the graph, once, and every
// later oriented job of the process shares it. Every process — and a
// one-process session over the same graph — keeps the same lists resident and
// cuts the same resident core.
func TestOrientedTCRemoteSession(t *testing.T) {
	for name, g := range differentialGraphs() {
		want, tasks := orientedRef(t, g)
		rows, fingerprint := coreRef(g)
		cfg := smallConfig()
		cfg.Partitioner = partition.Hash{}
		rs, wps := remoteTestCluster(t, g, cfg,
			cluster.RemoteSessionConfig{},
			cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond})
		for launch, generic := range []bool{false, true, false} {
			a, sp := tcArm(t, g, generic)
			j, err := rs.Launch(a, cluster.JobOptions{Spec: sp})
			if err != nil {
				t.Fatal(err)
			}
			res, err := j.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.AggGlobal != any(want) {
				t.Fatalf("%s launch %d generic=%v: %v triangles, want %d", name, launch, generic, res.AggGlobal, want)
			}
			if res.Total.TasksDone != tasks[generic] {
				t.Fatalf("%s launch %d generic=%v: the job ran %d tasks, its arm seeds %d", name, launch, generic, res.Total.TasksDone, tasks[generic])
			}
			// The workers' own report: the coordinator cuts no view to count.
			if generic != (res.ResidentLists == 0) || res.ResidentRows != map[bool]int{false: rows}[generic] {
				t.Fatalf("%s launch %d generic=%v: %d resident lists, %d rows", name, launch, generic, res.ResidentLists, res.ResidentRows)
			}
		}
		for i, wp := range wps {
			if ids := wp.ResidentIDs(); !reflect.DeepEqual(ids, wps[0].ResidentIDs()) || len(ids) == 0 {
				t.Fatalf("%s: worker process %d keeps %d lists resident, process 0 %d", name, i, len(ids), len(wps[0].ResidentIDs()))
			}
			if r, fp := wp.ResidentCore(); r != rows || fp != fingerprint {
				t.Fatalf("%s: worker process %d cut a core of %d rows (%x), SeqRun %d (%x)", name, i, r, fp, rows, fingerprint)
			}
		}
		ref, err := cluster.NewSession(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp := jobspec.Spec{App: "tc"}.Normalize()
		if j, err := ref.Launch(algo.NewTriangleCount(), cluster.JobOptions{Spec: &sp}); err != nil {
			t.Fatal(err)
		} else if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if ids := ref.ResidentIDs(); !reflect.DeepEqual(ids, wps[0].ResidentIDs()) {
			t.Fatalf("%s: a session keeps %d lists resident, the worker processes %d", name, len(ids), len(wps[0].ResidentIDs()))
		}
		if r, fp := ref.ResidentCore(); r != rows || fp != fingerprint {
			t.Fatalf("%s: a session cut a core of %d rows (%x), the worker processes %d (%x)", name, r, fp, rows, fingerprint)
		}
		ref.Close()
		rs.Close()
	}
}

// A worker killed mid-job is replaced by one restored from the committed
// epoch — onto the oriented table: restored tasks carry forward lists and
// the rest of the partition is still to be seeded, so a replacement built
// over the undirected table would overcount. The table has its resident
// set: a restored task's to_pull is recomputed at intake, against it.
func TestOrientedTCKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/recover soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 103})
	want, _ := orientedRef(t, g)
	sp := jobspec.Spec{App: "tc"}.Normalize()
	for _, h := range []host{goroutines, processes} { // a kill takes one path over either goroutine transport
		cfg := smallConfig()
		cfg.Partitioner = partition.Hash{}
		cfg.Stealing = false // a migration in flight at kill time would be lost
		cfg.CheckpointDir = t.TempDir()
		// Held: the kill lands mid-job, with seeds still to come on every slot.
		release := holdJobs(&cfg)
		sess := openSession(t, g, cfg, h)
		j, err := sess.Launch(algo.NewTriangleCount(), cluster.JobOptions{ID: "tc-kill", Spec: &sp, CheckpointEvery: 3 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		awaitManifest(t, j, cfg.CheckpointDir, "tc-kill")
		j.KillWorker(1)
		if err := j.RecoverWorker(1); err != nil {
			t.Fatal(err)
		}
		release()
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.AggGlobal != any(want) || res.Recovered == 0 || res.ResidentLists == 0 {
			t.Fatalf("%s: %v triangles after %d recoveries with %d resident lists, want %d after at least one",
				h.name, res.AggGlobal, res.Recovered, res.ResidentLists, want)
		}
		sess.Close()
	}
}

// TestSeedOnlyJobNeverSpills: oriented TC makes one task per seed and none
// of them ever comes back to the store, so whatever the store writes to the
// spiller, the seeder put there. At the benchmark's engine shape — and the
// same shape an eighth the size, which -short keeps — every worker seeds
// more than twice its spill threshold and the streaming seeder must still
// stay under it: spilling is for what the executor produces.
func TestSeedOnlyJobNeverSpills(t *testing.T) {
	for _, tc := range []struct {
		scale    int
		edges    int64
		storeMem int
		long     bool
	}{
		{scale: 13, edges: 125_000, storeMem: 1024},
		{scale: 16, edges: 1_000_000, storeMem: 8192, long: true},
	} {
		if tc.long && testing.Short() {
			continue
		}
		g := gen.RMAT(gen.RMATConfig{Scale: tc.scale, Edges: tc.edges, Seed: 42})
		cfg := cluster.Config{Workers: 2, Threads: 1, CacheCapacity: 8192, StoreMemCapacity: tc.storeMem, UseLSH: true, Stealing: true}
		res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.AggGlobal != any(algo.RefTriangles(g)) {
			t.Fatalf("scale %d: %v triangles, reference %d", tc.scale, res.AggGlobal, algo.RefTriangles(g))
		}
		if res.Total.TasksDone <= int64(2*cfg.Workers*tc.storeMem) {
			t.Fatalf("scale %d: %d tasks cannot overflow %d stores of %d", tc.scale, res.Total.TasksDone, cfg.Workers, tc.storeMem)
		}
		if res.Total.DiskWrite != 0 || res.Total.DiskRead != 0 {
			t.Fatalf("scale %d: a seed-only job spilled %d bytes and read back %d", tc.scale, res.Total.DiskWrite, res.Total.DiskRead)
		}
	}
}
