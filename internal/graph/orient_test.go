package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gminer/internal/gen"
	"gminer/internal/graph"
)

// checkOriented holds gplus to Orient's contract against g: same vertices
// in the same slots, every undirected edge in exactly one endpoint's
// forward list — the endpoint that comes first in (degree, ID) order —
// lists ID-sorted and duplicate-free, annotations shared.
func checkOriented(t *testing.T, g, gplus *graph.Graph) {
	t.Helper()
	if gplus.NumVertices() != g.NumVertices() || !reflect.DeepEqual(gplus.IDs(), g.IDs()) {
		t.Fatalf("oriented view holds %d vertices %v, graph %d", gplus.NumVertices(), gplus.IDs(), g.NumVertices())
	}
	type edge struct{ lo, hi graph.VertexID }
	held := map[edge]int{}
	g.ForEach(func(v *graph.Vertex) bool {
		o := gplus.Vertex(v.ID)
		if o == nil || o == v || o.ID != v.ID || o.Label != v.Label {
			t.Fatalf("vertex %d: view holds %+v", v.ID, o)
		}
		if len(v.Attrs) > 0 && &o.Attrs[0] != &v.Attrs[0] {
			t.Fatalf("vertex %d: attributes copied, not shared", v.ID)
		}
		for i, u := range o.Adj {
			if i > 0 && o.Adj[i-1] >= u {
				t.Fatalf("vertex %d: forward list %v not ascending", v.ID, o.Adj)
			}
			w := g.Vertex(u)
			if !v.HasNeighbor(u) || len(w.Adj) < len(v.Adj) || (len(w.Adj) == len(v.Adj) && u < v.ID) {
				t.Fatalf("vertex %d (deg %d): forward neighbor %d (deg %d) does not outrank it", v.ID, len(v.Adj), u, len(w.Adj))
			}
			e := edge{v.ID, u}
			if e.lo > e.hi {
				e.lo, e.hi = e.hi, e.lo
			}
			held[e]++
		}
		return true
	})
	if int64(len(held)) != g.NumEdges() {
		t.Fatalf("forward lists hold %d distinct edges, graph has %d", len(held), g.NumEdges())
	}
	for e, n := range held {
		if n != 1 {
			t.Fatalf("edge %v held %d times", e, n)
		}
	}
}

func TestOrientProperties(t *testing.T) {
	community, _ := gen.Community(gen.CommunityConfig{Communities: 40, MinSize: 4, MaxSize: 9, PIn: 0.6, Bridges: 60, Seed: 5})
	for name, g := range map[string]*graph.Graph{
		"rmat":      gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 5}),
		"community": community,
		"empty":     func() *graph.Graph { g := graph.New(0); g.Freeze(); return g }(),
	} {
		t.Run(name, func(t *testing.T) {
			a, b := graph.Orient(g), graph.Orient(g)
			checkOriented(t, g, a)
			// A pure function of the graph: two orientations are identical.
			g.ForEach(func(v *graph.Vertex) bool {
				if x, y := a.Vertex(v.ID).Adj, b.Vertex(v.ID).Adj; len(x)+len(y) > 0 && !reflect.DeepEqual(x, y) {
					t.Fatalf("vertex %d: two orientations differ: %v vs %v", v.ID, x, y)
				}
				return true
			})
			if err := g.Validate(); err != nil {
				t.Fatalf("orienting disturbed the graph: %v", err)
			}
		})
	}
}

// On a dynamic graph the view is cut per epoch: tombstoned slots are
// skipped, later vertices keep their place, and a view cut after the
// mutations sees them. A new external ID takes the next internal ID, and a
// tombstone stays one until its external ID comes back.
func TestOrientDynamicGraph(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1500, Seed: 9})
	rng := rand.New(rand.NewSource(9))
	ids := g.IDs()
	slots := g.Slots()
	for round := 0; round < 8; round++ {
		for i := 0; i < 6; i++ {
			g.DynDelVertex(ids[rng.Intn(len(ids))])
			g.DynAddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
			g.DynDelEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
		}
		id, added := g.DynAddVertex(graph.VertexID(100000+round), 3, []int32{1, 2})
		if !added || id != graph.VertexID(slots+round) || g.External(id) != graph.VertexID(100000+round) {
			t.Fatalf("round %d: new vertex 100000+%d got internal ID %d (added %v), want %d", round, round, id, added, slots+round)
		}
		g.DynAddEdge(id, ids[0])
		checkOriented(t, g, graph.Orient(g)) // with tombstones
	}
	gone := ids[rng.Intn(len(ids))]
	g.DynDelVertex(gone)
	if back, added := g.DynAddVertex(g.External(gone), 0, nil); !added || back != gone || g.Slots() != slots+8 {
		t.Fatalf("re-adding external ID %d gave internal ID %d (added %v) and %d slots, want %d and %d", g.External(gone), back, added, g.Slots(), gone, slots+8)
	}
	checkOriented(t, g, graph.Orient(g))
}

// checkHotLists holds a HotLists pick to its contract: densities — the
// in-references of a list over its footprint, counted here edge by edge —
// non-increasing with ties by ID, nothing unreferenced, each pick's reported
// in-references the counted ones, the whole weighing at most the budget, and
// the densest list left out too heavy to have fitted.
func checkHotLists(t *testing.T, g, gplus *graph.Graph, budget int64, hot []graph.VertexID, hotRefs []int64) {
	t.Helper()
	refs := map[graph.VertexID]int64{}
	gplus.ForEach(func(v *graph.Vertex) bool {
		for _, u := range v.Adj {
			refs[u]++
		}
		return true
	})
	denser := func(a, b graph.VertexID) bool { // a strictly before b in the ranking
		fa, fb := gplus.Vertex(a).FootprintBytes(), gplus.Vertex(b).FootprintBytes()
		if l, r := refs[a]*fb, refs[b]*fa; l != r {
			return l > r
		}
		return a < b
	}
	picked := map[graph.VertexID]bool{}
	var total int64
	for i, id := range hot {
		if picked[id] || gplus.Vertex(id) == nil || refs[id] == 0 {
			t.Fatalf("pick %d: vertex %d is a duplicate, absent or unreferenced", i, id)
		}
		if len(hotRefs) != len(hot) || hotRefs[i] != refs[id] {
			t.Fatalf("pick %d: vertex %d is held by %d forward lists, HotLists says %v", i, id, refs[id], hotRefs)
		}
		if i > 0 && !denser(hot[i-1], id) {
			t.Fatalf("pick %d: vertex %d ranks before its predecessor %d", i, id, hot[i-1])
		}
		picked[id] = true
		total += gplus.Vertex(id).FootprintBytes()
	}
	if total > budget {
		t.Fatalf("picked lists weigh %d B, budget %d", total, budget)
	}
	var next *graph.Vertex
	gplus.ForEach(func(v *graph.Vertex) bool {
		if !picked[v.ID] && refs[v.ID] > 0 && (next == nil || denser(v.ID, next.ID)) {
			next = v
		}
		return true
	})
	if next == nil {
		return
	}
	if len(hot) > 0 && !denser(hot[len(hot)-1], next.ID) {
		t.Fatalf("vertex %d was left out but outranks the last pick %d", next.ID, hot[len(hot)-1])
	}
	if total+next.FootprintBytes() <= budget {
		t.Fatalf("next-densest list %d (%d B) fits beside the %d B picked under budget %d", next.ID, next.FootprintBytes(), total, budget)
	}
}

// The resident set is a pure function of the graph — the same on every run
// and on a graph rebuilt from the same edges — and obeys the density rule on
// skewed, flat and degenerate inputs, at the engine's budget and at others.
func TestResidentSet(t *testing.T) {
	rebuilt := func(g *graph.Graph) *graph.Graph {
		h := graph.New(g.NumVertices())
		ids := g.IDs()
		for i := len(ids) - 1; i >= 0; i-- { // another insertion order
			v := g.Vertex(ids[i])
			h.AddVertex(v.ID)
			h.SetLabel(v.ID, v.Label)
			h.SetAttrs(v.ID, v.Attrs)
			for _, u := range v.Adj {
				h.AddEdge(v.ID, u)
			}
		}
		h.Freeze()
		return h
	}
	build := func(edges func(add func(u, w graph.VertexID))) *graph.Graph {
		g := graph.New(0)
		edges(g.AddEdge)
		g.Freeze()
		return g
	}
	community, _ := gen.Community(gen.CommunityConfig{Communities: 40, MinSize: 4, MaxSize: 9, PIn: 0.6, Bridges: 60, Seed: 5})
	graphs := map[string]*graph.Graph{
		"rmat":      gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 9000, Seed: 5}),
		"community": community,
		"empty":     build(func(func(u, w graph.VertexID)) {}),
		"star": build(func(add func(u, w graph.VertexID)) {
			for i := graph.VertexID(1); i <= 50; i++ {
				add(0, i)
			}
		}),
		"clique": build(func(add func(u, w graph.VertexID)) {
			for i := graph.VertexID(0); i < 24; i++ {
				for j := i + 1; j < 24; j++ {
					add(i, j)
				}
			}
		}),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			gplus := graph.Orient(g)
			for _, budget := range []int64{0, 59, 16 * int64(g.NumVertices()), 1 << 40} {
				hot, refs := graph.HotLists(gplus, budget)
				checkHotLists(t, g, gplus, budget, hot, refs)
				if again, _ := graph.HotLists(graph.Orient(g), budget); !reflect.DeepEqual(hot, again) {
					t.Fatalf("budget %d: two cuts differ: %v vs %v", budget, hot, again)
				}
				h := rebuilt(g)
				if other, _ := graph.HotLists(graph.Orient(h), budget); !reflect.DeepEqual(hot, other) {
					t.Fatalf("budget %d: a graph rebuilt from the same edges picks %v, not %v", budget, other, hot)
				}
			}
		})
	}
	// A star's hub is in every leaf's list and keeps nothing: it alone is
	// referenced. A clique's lists shorten as its references grow, so the
	// ranking runs down from the top ID.
	if hot, _ := graph.HotLists(graph.Orient(graphs["star"]), 16*51); !reflect.DeepEqual(hot, []graph.VertexID{0}) {
		t.Fatalf("star: resident set %v, want the hub alone", hot)
	}
	if hot, _ := graph.HotLists(graph.Orient(graphs["clique"]), 16*24); len(hot) == 0 || hot[0] != 23 || hot[len(hot)-1] != 23-graph.VertexID(len(hot)-1) {
		t.Fatalf("clique: resident set %v does not run down from the top ID", hot)
	}
	if hot, _ := graph.HotLists(graph.Orient(graphs["empty"]), 1<<20); len(hot) != 0 {
		t.Fatalf("empty graph: resident set %v", hot)
	}
}
