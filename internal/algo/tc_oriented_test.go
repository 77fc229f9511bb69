package algo

import (
	"testing"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/kernels"
	"gminer/internal/plan"
)

// sparseIDs copies g, labels included, with every ID scaled and offset, so
// the ID span is far wider than 64·|V|: the oriented path's bitmap rule and
// GM's position table both decline.
func sparseIDs(g *graph.Graph) *graph.Graph {
	relabel := func(id graph.VertexID) graph.VertexID { return id*1009 + 5_000_000_007 }
	out := graph.New(g.NumVertices())
	g.ForEach(func(v *graph.Vertex) bool {
		out.AddVertex(relabel(v.ID)).Label = v.Label
		for _, u := range v.Adj {
			out.AddEdge(relabel(v.ID), relabel(u))
		}
		return true
	})
	out.Freeze()
	return out
}

// Oriented TC == generic TC == the compiled triangle plan == the reference
// count, on skewed and on community graphs, with dense IDs (bitmap) and
// with sparse IDs (merge/gallop over forward lists).
func TestOrientedTCDifferential(t *testing.T) {
	community, _ := gen.Community(gen.CommunityConfig{Communities: 60, MinSize: 5, MaxSize: 12, PIn: 0.7, Bridges: 200, Seed: 3})
	rmat := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 3})
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		dense bool
	}{
		{"rmat", rmat, true},
		{"community", community, true},
		{"rmat-sparse-ids", sparseIDs(rmat), false},
		{"community-sparse-ids", sparseIDs(community), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := RefTriangles(tc.g)
			if want == 0 {
				t.Fatal("degenerate graph: no triangles")
			}
			generic := NewTriangleCount()
			generic.Generic = true
			if got := SeqRun(tc.g, generic).AggGlobal; got != any(want) || generic.oriented {
				t.Fatalf("generic TC = %v (oriented=%v), reference %d", got, generic.oriented, want)
			}
			oriented := NewTriangleCount()
			res := SeqRun(tc.g, oriented)
			if res.AggGlobal != any(want) || !oriented.oriented {
				t.Fatalf("oriented TC = %v (oriented=%v), reference %d", res.AggGlobal, oriented.oriented, want)
			}
			if bitmap := oriented.bitmaps != nil; bitmap != tc.dense {
				t.Fatalf("bitmap path taken = %v on a graph with dense IDs = %v", bitmap, tc.dense)
			}
			planned, err := plan.Count(kernels.MustBuild(tc.g), plan.Triangle())
			if err != nil || planned != want {
				t.Fatalf("plan.Count = %d (%v), reference %d", planned, err, want)
			}
			// One task per vertex with two or more forward neighbors.
			var seeds int64
			graph.Orient(tc.g).ForEach(func(v *graph.Vertex) bool {
				if len(v.Adj) >= 2 {
					seeds++
				}
				return true
			})
			if res.Tasks != seeds {
				t.Fatalf("oriented run executed %d tasks, want one per seed with >= 2 forward neighbors = %d", res.Tasks, seeds)
			}
		})
	}
}

// A runner that knows nothing of orientation — a bare Seed/Update loop
// over the undirected graph, which is all baseline.Batch is to an
// algorithm — must get correct generic TC, whether or not it configured
// the kernel layer. Only MineOriented may move TC onto forward lists.
func TestTCUnawareRunnerStaysGeneric(t *testing.T) {
	g := pinnedGraph(t)
	want := RefTriangles(g)
	for name, a := range map[string]*TriangleCount{
		"default":            NewTriangleCount(),
		"kernels-configured": func() *TriangleCount { a := NewTriangleCount(); a.ConfigureKernels(nil, false); return a }(),
	} {
		env := &seqEnv{g: g, agg: a.Aggregator(), partial: a.Aggregator().Zero()}
		g.ForEach(func(v *graph.Vertex) bool {
			a.Seed(v, func(task *core.Task) {
				cands := make([]*graph.Vertex, len(task.Cands))
				for i, id := range task.Cands {
					cands[i] = g.Vertex(id)
				}
				a.Update(task, cands, env)
			})
			return true
		})
		if env.partial != any(want) {
			t.Fatalf("%s: bare loop counted %v triangles, reference %d", name, env.partial, want)
		}
	}
	generic := NewTriangleCount()
	generic.ConfigureKernels(nil, true)
	if generic.MineOriented(graph.Orient(g)) {
		t.Fatal("a TC configured generic accepted the oriented graph")
	}
}
