package plan_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/plan"
)

// This file is the differential suite gating the plan/kernel layer: on
// seeded random graphs, across pattern shapes and shard (worker) counts,
// every job must equal the independent sequential references and the
// compiled plan executed over the CSR; TC runs both its arms, on G⁺ and
// undirected, and their outputs must be byte-identical. It runs under
// -race in the race CI job.

// undirectedTC is TC whose Plan opens the job and declares nothing, so any
// runtime runs it on the undirected graph.
type undirectedTC struct{ *algo.TriangleCount }

func (u undirectedTC) Plan() core.Plan {
	u.TriangleCount.Plan()
	return core.Plan{}
}

// diffGraphs is the seeded random-graph corpus. Labels are always
// assigned (TC ignores them; GM needs them).
func diffGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, seed := range []int64{1, 42} {
		g := gen.ErdosRenyi(150, 900, seed)
		gen.AssignLabels(g, 4, seed+100)
		out[fmt.Sprintf("er-%d", seed)] = g
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 1024, Seed: 9})
	gen.AssignLabels(g, 4, 909)
	out["rmat-9"] = g
	return out
}

// randomTreePattern builds a deterministic random labeled tree with n
// nodes from the seed: parent[i] uniform in [0, i), labels uniform over a
// small alphabet.
func randomTreePattern(n int, seed int64) *algo.Pattern {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int32, n)
	parent := make([]int, n)
	parent[0] = -1
	for i := 0; i < n; i++ {
		labels[i] = rng.Int31n(4)
		if i > 0 {
			parent[i] = rng.Intn(i)
		}
	}
	return algo.MustPattern(labels, parent)
}

// randomTreeOfDepth returns the first randomTreePattern(n, seed), seed = 1,
// 2, ..., that is exactly depth levels deep.
func randomTreeOfDepth(t testing.TB, n, depth int) *algo.Pattern {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		if p := randomTreePattern(n, seed); p.Depth() == depth {
			return p
		}
	}
	t.Fatalf("no %d-node random tree of depth %d in 1000 seeds", n, depth)
	return nil
}

func TestDifferentialTC(t *testing.T) {
	for gname, g := range diffGraphs(t) {
		want := algo.RefTriangles(g)
		for _, workers := range []int{1, 2, 4} {
			var baseline []string
			for _, undirected := range []bool{true, false} {
				var tc core.Algorithm = algo.NewTriangleCount()
				if undirected {
					tc = undirectedTC{algo.NewTriangleCount()}
				}
				seq := algo.SeqRun(g, tc)
				res, err := cluster.Run(g, tc, cluster.Config{Workers: workers, Threads: 2})
				if err == nil && res.Total.TasksDone != seq.Tasks {
					t.Errorf("%s w=%d undirected=%v: %d tasks, the arm's sequential run %d", gname, workers, undirected, res.Total.TasksDone, seq.Tasks)
				}
				if err != nil {
					t.Fatalf("%s w=%d undirected=%v: %v", gname, workers, undirected, err)
				}
				if got := res.AggGlobal.(int64); got != want {
					t.Errorf("%s w=%d undirected=%v: tc=%d ref=%d", gname, workers, undirected, got, want)
				}
				if undirected {
					baseline = res.Records
				} else if !reflect.DeepEqual(baseline, res.Records) {
					t.Errorf("%s w=%d: records differ between the undirected and oriented runs", gname, workers)
				}
			}
		}
		// The compiled plan executed directly over the CSR must agree too.
		csr := kernels.MustBuild(g)
		if got, err := plan.Count(csr, plan.Triangle()); err != nil || got != want {
			t.Errorf("%s: plan.Count=%d (err=%v), ref=%d", gname, got, err, want)
		}
		// And the sequential run, which orients its input like the cluster does.
		if got := algo.SeqRun(g, algo.NewTriangleCount()).AggGlobal; got != any(want) {
			t.Errorf("%s: SeqRun=%v, ref=%d", gname, got, want)
		}
	}
}

func TestDifferentialGM(t *testing.T) {
	patterns := map[string]*algo.Pattern{
		"figure":   algo.FigurePattern(),
		"path3":    algo.PathPattern(0, 1, 2),
		"path4":    algo.PathPattern(1, 2, 3, 0),
		"rtree5-3": randomTreePattern(5, 3),
		"rtree6-8": randomTreePattern(6, 8),
		"rtree7-5": randomTreePattern(7, 5),
		// Shapes that stress the leaf counters and the shared frontier: every
		// non-root node a leaf; two expanding siblings with one label; a leaf
		// and an expanding node with one label on one level; a deep tree; and
		// the root alone, which counts 1 per seed and never matches a level.
		"star":          algo.MustPattern([]int32{0, 1, 2, 3}, []int{-1, 0, 0, 0}),
		"twins":         algo.MustPattern([]int32{0, 1, 1, 2, 3}, []int{-1, 0, 0, 1, 2}),
		"leaf+internal": algo.MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 1}),
		"rtree-depth4":  randomTreeOfDepth(t, 8, 4),
		"single":        algo.MustPattern([]int32{1}, []int{-1}),
	}
	for gname, g := range diffGraphs(t) {
		for pname, p := range patterns {
			want := algo.RefMatchCount(g, p)
			seq := algo.SeqRun(g, algo.NewGraphMatch(p))
			if seq.AggGlobal != any(want) {
				t.Errorf("%s/%s: SeqRun=%v ref=%d", gname, pname, seq.AggGlobal, want)
			}
			for _, workers := range []int{1, 3} {
				res, err := cluster.Run(g, algo.NewGraphMatch(p), cluster.Config{Workers: workers, Threads: 2})
				if err != nil {
					t.Fatalf("%s/%s w=%d: %v", gname, pname, workers, err)
				}
				if res.Total.TasksDone != seq.Tasks {
					t.Errorf("%s/%s w=%d: %d tasks, the sequential run %d", gname, pname, workers, res.Total.TasksDone, seq.Tasks)
				}
				if got := res.AggGlobal.(int64); got != want || !reflect.DeepEqual(res.Records, seq.Records) {
					t.Errorf("%s/%s w=%d: gm=%d with %d records, ref=%d with %d", gname, pname, workers, got, len(res.Records), want, len(seq.Records))
				}
			}
			// The ModeHom plan executed directly must agree as well.
			csr := kernels.MustBuild(g)
			hp, err := plan.Compile(p.Labels, p.Parent)
			if err != nil {
				t.Fatalf("%s: Compile: %v", pname, err)
			}
			if got, err := plan.HomCount(csr, hp); err != nil || got != want {
				t.Errorf("%s/%s: plan.HomCount=%d (err=%v), ref=%d", gname, pname, got, err, want)
			}
		}
	}
}

// TestDifferentialSessionLaunch pins the serving path: on one session, TC
// built from its spec, as the serving layer builds it, runs on the
// session-held oriented view, TC offered nothing runs undirected, and both
// count the reference.
func TestDifferentialSessionLaunch(t *testing.T) {
	g := gen.ErdosRenyi(120, 700, 5)
	gen.AssignLabels(g, 4, 105)
	want := algo.RefTriangles(g)

	sess, err := cluster.NewSession(g, cluster.Config{Workers: 2, Threads: 2})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()

	spec := jobspec.Spec{App: "tc"}.Normalize()
	planned, err := jobspec.Build(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []core.Algorithm{planned, undirectedTC{algo.NewTriangleCount()}} {
		_, undirected := a.(undirectedTC)
		j, err := sess.Launch(a, cluster.JobOptions{Spec: &spec})
		if err != nil {
			t.Fatalf("Launch(undirected=%v): %v", undirected, err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("Wait(undirected=%v): %v", undirected, err)
		}
		if undirected != (res.ResidentLists == 0) {
			t.Fatalf("undirected=%v: %d resident lists: the other arm ran", undirected, res.ResidentLists)
		}
		if got := res.AggGlobal.(int64); got != want {
			t.Errorf("undirected=%v session job = %d, ref = %d", undirected, got, want)
		}
	}
}
