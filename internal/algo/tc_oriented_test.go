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
// with sparse IDs (merge/gallop over forward lists). SeqRun offers the
// resident core the way the runtime does: RMAT takes it, the community graph
// declines it, and sparse IDs have none.
func TestOrientedTCDifferential(t *testing.T) {
	community, _ := gen.Community(gen.CommunityConfig{Communities: 60, MinSize: 5, MaxSize: 12, PIn: 0.7, Bridges: 200, Seed: 3})
	rmat := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 3})
	for _, tc := range []struct {
		name        string
		g           *graph.Graph
		dense, core bool
	}{
		{"rmat", rmat, true, true},
		{"community", community, true, false},
		{"rmat-sparse-ids", sparseIDs(rmat), false, false},
		{"community-sparse-ids", sparseIDs(community), false, false},
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
			if bitmap := oriented.bitmaps != nil; bitmap != tc.dense || (oriented.core != nil) != tc.core {
				t.Fatalf("bitmap path taken = %v, resident core = %v on a graph with dense IDs = %v", bitmap, oriented.core != nil, tc.dense)
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

// tcTasks is oriented TC readied on g the way SeqRun readies it — with the
// view's resident core when withCore is set, on the plain bitmap otherwise —
// and every task it seeds, each with its candidates resolved.
type tcTasks struct {
	a     *TriangleCount
	env   *seqEnv
	tasks []*core.Task
	cands [][]*graph.Vertex
}

func newTCTasks(tb testing.TB, g *graph.Graph, withCore bool) *tcTasks {
	tb.Helper()
	gplus := graph.Orient(g)
	var rc *kernels.ResidentCore
	if withCore {
		ids, refs := graph.HotLists(gplus, graph.ResidentBudgetPerVertex*int64(g.NumVertices()))
		if rc = kernels.NewResidentCore(gplus, ids, refs); rc == nil {
			tb.Fatal("the view offers no resident core")
		}
	}
	a := NewTriangleCount()
	core.PlanOf(a).Oriented(gplus, rc)
	tt := &tcTasks{a: a, env: &seqEnv{g: gplus, agg: a.Aggregator(), partial: int64(0)}}
	gplus.ForEach(func(v *graph.Vertex) bool {
		a.Seed(v, func(t *core.Task) {
			cands := make([]*graph.Vertex, len(t.Cands))
			for i, id := range t.Cands {
				cands[i] = gplus.Vertex(id)
			}
			tt.tasks, tt.cands = append(tt.tasks, t), append(tt.cands, cands)
		})
		return true
	})
	return tt
}

// run updates every task once and returns the triangles they counted.
func (tt *tcTasks) run() int64 {
	tt.env.partial = int64(0)
	for i, t := range tt.tasks {
		tt.a.Update(t, tt.cands[i], tt.env)
	}
	return tt.env.partial.(int64)
}

// A resident core changes how TC counts, never what: with it every task
// counts what it counts on the plain bitmap, and Update allocates nothing but
// the boxed count it hands the aggregator (none below 256) — the marks live in
// the pooled scratch beside the ID bitmap.
func TestTCUpdateCore(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 12, Edges: 60_000, Seed: 42})
	withCore, plain := newTCTasks(t, g, true), newTCTasks(t, g, false)
	if withCore.a.core == nil || plain.a.core != nil {
		t.Fatal("core offered to the wrong run")
	}
	boxed := 0
	for i, task := range withCore.tasks {
		var with, without seqEnv
		with.agg, without.agg = withCore.a.Aggregator(), plain.a.Aggregator()
		with.partial, without.partial = int64(0), int64(0)
		withCore.a.Update(task, withCore.cands[i], &with)
		plain.a.Update(plain.tasks[i], plain.cands[i], &without)
		if with.partial != without.partial {
			t.Fatalf("task at %d: %v triangles with the core, %v without", task.Subgraph.Vertices()[0], with.partial, without.partial)
		}
		if with.partial.(int64) > 255 {
			boxed++
		}
	}
	if got, want := withCore.run(), RefTriangles(g); got != want {
		t.Fatalf("%d triangles, reference %d", got, want)
	}
	// The sum is the env's to box; Update's own allocations are what is left.
	// One scratch whatever the pool drops (under -race it drops at random).
	sc := withCore.a.bitmaps.Get()
	withCore.a.bitmaps.New = func() any { return sc }
	var discard discardAgg
	allocs := testing.AllocsPerRun(5, func() {
		for i, task := range withCore.tasks {
			withCore.a.Update(task, withCore.cands[i], &discard)
		}
	})
	if allocs > float64(boxed) {
		t.Fatalf("%.0f allocations over %d tasks, of which %d box their count", allocs, len(withCore.tasks), boxed)
	}
}

// BenchmarkTCUpdateCore is the sequential kernel loop of oriented TC over
// every task of batch-tc-compute's graph (RMAT-16, seed 42): the plain ID
// bitmap, one probe per candidate list element, against the resident core.
func BenchmarkTCUpdateCore(b *testing.B) {
	g := gen.RMAT(gen.RMATConfig{Scale: 16, Edges: 1_000_000, Seed: 42})
	for _, arm := range []struct {
		name     string
		withCore bool
	}{{"bitmap", false}, {"core", true}} {
		tt := newTCTasks(b, g, arm.withCore)
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tcSink = tt.run()
			}
		})
	}
}

var tcSink int64

// discardAgg is an env whose aggregator drops what it is handed.
type discardAgg struct{ seqEnv }

func (*discardAgg) AggUpdate(any) {}

// A runner that offers no G⁺ — a bare Seed/Update loop over the undirected
// graph that opens each job with core.PlanOf and calls none of the plan's
// fields, which is all baseline.Batch is to TC — must get correct generic TC:
// only Plan.Oriented moves TC onto forward lists, and opening the next job
// moves it back off. One TC value runs a planned job first and the bare loop
// after it: the second count is still the reference.
func TestTCUnawareRunnerStaysGeneric(t *testing.T) {
	g := pinnedGraph(t)
	want := RefTriangles(g)
	bare := func(a *TriangleCount) any {
		core.PlanOf(a)
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
		return env.partial
	}
	if got := bare(NewTriangleCount()); got != any(want) {
		t.Fatalf("fresh value: bare loop counted %v triangles, reference %d", got, want)
	}
	reused := NewTriangleCount()
	if res := SeqRun(g, reused); res.AggGlobal != any(want) || !reused.oriented {
		t.Fatalf("planned job counted %v triangles (oriented=%v), reference %d", res.AggGlobal, reused.oriented, want)
	}
	if got := bare(reused); got != any(want) || reused.oriented {
		t.Fatalf("reused value: bare loop counted %v triangles (oriented=%v), reference %d", got, reused.oriented, want)
	}
	generic := NewTriangleCount()
	generic.Generic = true
	if p := core.PlanOf(generic); p.Oriented != nil || p.Labels != nil || p.SeedRadius != 0 {
		t.Fatal("a TC configured generic declared a plan")
	}
}
