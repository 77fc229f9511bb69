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
// mutations sees them.
func TestOrientDynamicGraph(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1500, Seed: 9})
	rng := rand.New(rand.NewSource(9))
	ids := g.IDs()
	for round := 0; round < 8; round++ {
		for i := 0; i < 6; i++ {
			g.DynDelVertex(ids[rng.Intn(len(ids))])
			g.DynAddEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
			g.DynDelEdge(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
		}
		g.DynAddVertex(graph.VertexID(100000+round), 3, []int32{1, 2})
		g.DynAddEdge(graph.VertexID(100000+round), ids[0])
		checkOriented(t, g, graph.Orient(g)) // with tombstones
		if round%2 == 1 {
			g.DynCompact()
			checkOriented(t, g, graph.Orient(g))
		}
	}
	var lo, hi graph.VertexID = 1 << 40, -1
	for _, id := range g.IDs() {
		lo, hi = min(lo, id), max(hi, id)
	}
	if base, span := g.IDSpan(); base != lo || span != int64(hi-lo)+1 {
		t.Fatalf("IDSpan = (%d, %d), want (%d, %d)", base, span, lo, int64(hi-lo)+1)
	}
}
