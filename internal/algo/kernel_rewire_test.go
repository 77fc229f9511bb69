package algo

import (
	"testing"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/kernels"
	"gminer/internal/plan"
)

// This file pins the kernel rewiring of the algo hot loops: the three
// formerly hand-rolled intersection loops (GM parent matching, TC
// counting, MCF split) now run on internal/kernels, and the planned paths
// must produce results identical to the scalar references — with exact
// counts pinned so a silent semantic drift fails loudly.

// undirectedTC is TC whose Plan opens the job and declares nothing, so any
// runtime runs it on the undirected graph: the arm a runtime without G⁺
// (baseline.Batch) runs.
type undirectedTC struct{ *TriangleCount }

func (u undirectedTC) Plan() core.Plan {
	u.TriangleCount.Plan()
	return core.Plan{}
}

// pinnedGraph is the fixed workload: ER graph, 200 vertices, 1400 edges,
// seed 7, labels cycling over {0..3}.
func pinnedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	src := gen.ErdosRenyi(200, 1400, 7)
	// The generator freezes its output; rebuild with labels attached.
	g := graph.New(src.NumVertices())
	src.ForEach(func(v *graph.Vertex) bool {
		g.AddVertex(v.ID)
		g.SetLabel(v.ID, int32(v.ID%4))
		return true
	})
	src.ForEach(func(v *graph.Vertex) bool {
		for _, u := range v.Adj {
			if u > v.ID {
				g.AddEdge(v.ID, u)
			}
		}
		return true
	})
	g.Freeze()
	return g
}

func TestTCKernelVsGenericPinned(t *testing.T) {
	g := pinnedGraph(t)
	want := RefTriangles(g)
	if want == 0 {
		t.Fatalf("pinned graph has no triangles; workload is degenerate")
	}

	undirected := NewTriangleCount()
	undRes := SeqRun(g, undirectedTC{undirected})

	planTC := NewTriangleCount()
	planRes := SeqRun(g, planTC)
	if undirected.bitmaps != nil || planTC.bitmaps == nil {
		t.Fatalf("oriented: undirected TC %v, planned TC %v", undirected.bitmaps != nil, planTC.bitmaps != nil)
	}

	if undRes.AggGlobal.(int64) != want {
		t.Errorf("undirected TC = %d, ref = %d", undRes.AggGlobal, want)
	}
	if planRes.AggGlobal.(int64) != want {
		t.Errorf("kernel TC = %d, ref = %d", planRes.AggGlobal, want)
	}
	if len(undRes.Records) != 0 || len(planRes.Records) != 0 {
		t.Errorf("TC emitted records: undirected=%d plan=%d, want none", len(undRes.Records), len(planRes.Records))
	}
}

// TestGMKernelPinned: GM on the label column counts what RefMatchCount and
// the compiled ModeHom plan count.
func TestGMKernelPinned(t *testing.T) {
	g := pinnedGraph(t)
	csr := kernels.MustBuild(g)
	for _, pat := range []struct {
		name string
		p    *Pattern
	}{
		{"figure", FigurePattern()},
		{"path3", PathPattern(0, 1, 2)},
		{"path4", PathPattern(1, 2, 3, 0)},
		{"star", MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 0})},
	} {
		want := RefMatchCount(g, pat.p)
		if want == 0 {
			t.Fatalf("%s: nothing matches; workload is degenerate", pat.name)
		}
		hp, err := plan.Compile(pat.p.Labels, pat.p.Parent)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := plan.HomCount(csr, hp); err != nil || got != want {
			t.Errorf("%s: plan.HomCount = %d (%v), ref = %d", pat.name, got, err, want)
		}
		gm := NewGraphMatch(pat.p)
		res := SeqRun(g, gm)
		if gm.labels == nil {
			t.Fatalf("%s: SeqRun offered no label column", pat.name)
		}
		if res.AggGlobal.(int64) != want || len(res.Records) != 0 {
			t.Errorf("%s: GM = %d with %d records, ref = %d", pat.name, res.AggGlobal, len(res.Records), want)
		}
	}
}

func TestMCFSplitKernelPinned(t *testing.T) {
	g := pinnedGraph(t)
	want := RefMaxClique(g)

	plain := NewMaxClique()
	plainRes := SeqRun(g, plain)
	split := NewMaxClique()
	split.SplitThreshold = 4
	splitRes := SeqRun(g, split)

	if plainRes.AggGlobal.(int) != want {
		t.Errorf("MCF = %d, ref = %d", plainRes.AggGlobal, want)
	}
	if splitRes.AggGlobal.(int) != want {
		t.Errorf("MCF with kernel split = %d, ref = %d", splitRes.AggGlobal, want)
	}
}

// TestTCDagSeedingTaskShape pins the structural effect of DAG seeding:
// candidate sets bounded by DAG out-degree, total candidate volume across
// seeds equal to the generic path's pair coverage guarantee (each edge
// appears in exactly one seed's candidate set).
func TestTCDagSeedingTaskShape(t *testing.T) {
	g := pinnedGraph(t)
	gplus := graph.Orient(g)

	var genericEdges, dagEdges int64
	g.ForEach(func(v *graph.Vertex) bool {
		dagEdges += int64(len(gplus.Vertex(v.ID).Adj))
		for _, u := range v.Adj {
			if u > v.ID {
				genericEdges++
			}
		}
		return true
	})
	if genericEdges != dagEdges {
		t.Errorf("seeding covers %d edges generically but %d via DAG; each edge must appear exactly once", genericEdges, dagEdges)
	}
	if genericEdges != g.NumEdges() {
		t.Errorf("generic seeding covers %d of %d edges", genericEdges, g.NumEdges())
	}
}
