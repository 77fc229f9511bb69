package algo

import (
	"reflect"
	"testing"

	"gminer/internal/gen"
	"gminer/internal/graph"
)

// This file pins the kernel rewiring of the algo hot loops: the three
// formerly hand-rolled intersection loops (GM parent matching, TC
// counting, MCF split) now run on internal/kernels, and the compiled-plan
// paths must produce results identical to the generic scalar paths — with
// exact counts pinned so a silent semantic drift in either path fails
// loudly rather than both drifting together.

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

	genericTC := NewTriangleCount()
	genericTC.Generic = true
	genRes := SeqRun(g, genericTC)

	planTC := NewTriangleCount()
	planRes := SeqRun(g, planTC)
	if genericTC.bitmaps != nil || planTC.bitmaps == nil {
		t.Fatalf("oriented: generic TC %v, planned TC %v", genericTC.bitmaps != nil, planTC.bitmaps != nil)
	}

	if genRes.AggGlobal.(int64) != want {
		t.Errorf("generic TC = %d, ref = %d", genRes.AggGlobal, want)
	}
	if planRes.AggGlobal.(int64) != want {
		t.Errorf("kernel TC = %d, ref = %d", planRes.AggGlobal, want)
	}
	if len(genRes.Records) != 0 || len(planRes.Records) != 0 {
		t.Errorf("TC emitted records: generic=%d plan=%d, want none", len(genRes.Records), len(planRes.Records))
	}
}

func TestGMKernelVsGenericPinned(t *testing.T) {
	g := pinnedGraph(t)
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

		genericGM := NewGraphMatch(pat.p)
		genericGM.Generic = true
		genRes := SeqRun(g, genericGM)

		planGM := NewGraphMatch(pat.p)
		planRes := SeqRun(g, planGM)
		if genericGM.labels != nil || planGM.labels == nil {
			t.Fatalf("%s: label column taken: generic GM %v, planned GM %v", pat.name, genericGM.labels != nil, planGM.labels != nil)
		}

		if genRes.AggGlobal.(int64) != want {
			t.Errorf("%s: generic GM = %d, ref = %d", pat.name, genRes.AggGlobal, want)
		}
		if planRes.AggGlobal.(int64) != want {
			t.Errorf("%s: plan GM = %d, ref = %d", pat.name, planRes.AggGlobal, want)
		}
		if !reflect.DeepEqual(genRes.Records, planRes.Records) {
			t.Errorf("%s: records differ between generic and plan paths", pat.name)
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
