package dyngraph_test

import (
	"slices"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
)

func TestBall(t *testing.T) {
	// A path 0-1-2-3-4-5 and an isolated vertex 9.
	g := graph.New(7)
	for i := graph.VertexID(0); i < 5; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddVertex(9)
	g.Freeze()
	ids := func(v ...graph.VertexID) []graph.VertexID { return v }
	for _, tc := range []struct {
		name string
		from []graph.VertexID
		r    int
		want []graph.VertexID
	}{
		{"r=0 is the ids themselves", ids(2), 0, ids(2)},
		{"r=1", ids(2), 1, ids(1, 2, 3)},
		{"r=2 from an end", ids(0), 2, ids(0, 1, 2)},
		{"balls merge", ids(5, 0), 2, ids(0, 1, 2, 3, 4, 5)},
		{"absent id", ids(77), 2, nil},
		{"absent id beside a present one", ids(77, 4), 1, ids(3, 4, 5)},
		{"isolated vertex", ids(9), 2, ids(9)},
		{"duplicate ids", ids(2, 2), 0, ids(2)},
		{"radius past the component", ids(3), 10, ids(0, 1, 2, 3, 4, 5)},
		{"no ids", nil, 3, nil},
	} {
		if got := dyngraph.Ball(g, tc.from, tc.r); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Ball(%v, %d) = %v, want %v", tc.name, tc.from, tc.r, got, tc.want)
		}
	}
}

// seedRecords mines every vertex of g on its own: the per-seed record sets
// a seed-radius plan's match set is the union of.
func seedRecords(g *graph.Graph, a core.Algorithm) map[graph.VertexID][]string {
	out := make(map[graph.VertexID][]string)
	for _, id := range g.IDs() {
		if recs := algo.SeqRunSeeds(g, a, []graph.VertexID{id}).Records; len(recs) > 0 {
			out[id] = recs
		}
	}
	return out
}

// The soundness of dirty-rooted standing rounds, as a property: over seeded
// graphs and mutation streams, every seed whose cd / qc records differ
// between G and G' lies in B = Ball(G, D, r) ∪ D — so re-mining B alone,
// before and after the batch, accounts for every change to the match set.
func TestBallCoversChangedSeeds(t *testing.T) {
	community, _ := gen.Community(gen.CommunityConfig{Communities: 12, MinSize: 6, MaxSize: 12, PIn: 0.7, Bridges: 40, AttrDim: 3, AttrRange: 3, Seed: 5})
	er := gen.ErdosRenyi(150, 900, 6)
	gen.AssignAttrs(er, 2, 2, 6)

	miners := []func() core.Algorithm{
		func() core.Algorithm { return algo.NewCommunityDetect(0.5, 3) },
		func() core.Algorithm { return algo.NewQuasiClique(0.6, 4) },
	}
	i32 := func(v int32) *int32 { return &v }
	for gname, g := range map[string]*graph.Graph{"community": community, "er": er} {
		hub := g.IDs()[0]
		for _, id := range g.IDs() {
			if g.Vertex(id).Degree() > g.Vertex(hub).Degree() {
				hub = id
			}
		}
		fresh := g.IDs()[g.NumVertices()-1] + 1000
		stream := gen.Deltas(g, gen.DeltasConfig{Batches: 6, Ops: 24, Seed: 17})
		stream = append(stream,
			// Vertices created, then wired to each other and into the graph, in
			// the same batch.
			dyngraph.Batch{Ops: []dyngraph.Mutation{
				{Op: dyngraph.OpAddVertex, ID: fresh, Label: i32(0), Attrs: []int32{1, 1}},
				{Op: dyngraph.OpAddVertex, ID: fresh + 1, Label: i32(0), Attrs: []int32{1, 1}},
				{Op: dyngraph.OpAddEdge, U: fresh, W: fresh + 1},
				{Op: dyngraph.OpAddEdge, U: fresh, W: hub},
				{Op: dyngraph.OpAddEdge, U: fresh + 1, W: hub},
			}},
			// A deleted hub: every edge it drops has one dirty end.
			dyngraph.Batch{Ops: []dyngraph.Mutation{{Op: dyngraph.OpDelVertex, ID: hub}}},
			// An edge added and taken away again by deleting its end.
			dyngraph.Batch{Ops: []dyngraph.Mutation{
				{Op: dyngraph.OpAddEdge, U: fresh, W: g.IDs()[1]},
				{Op: dyngraph.OpDelVertex, ID: fresh},
			}},
			// A batch of no-ops.
			dyngraph.Batch{Ops: []dyngraph.Mutation{
				{Op: dyngraph.OpDelEdge, U: fresh + 7, W: fresh + 8},
				{Op: dyngraph.OpDelVertex, ID: fresh + 9},
			}},
		)
		kinds := map[string]bool{}
		changed := 0
		for bi, b := range stream {
			for _, m := range b.Ops {
				kinds[m.Op] = true
			}
			dirty := b.DirtyIDs()
			reach := make(map[int]map[graph.VertexID]bool) // B, by radius
			before := make([]map[graph.VertexID][]string, len(miners))
			for i, mk := range miners {
				a := mk()
				before[i] = seedRecords(g, a)
				if r := core.PlanOf(a).SeedRadius; reach[r] == nil {
					reach[r] = make(map[graph.VertexID]bool)
					for _, id := range append(dyngraph.Ball(g, dirty, r), dirty...) {
						reach[r][id] = true
					}
				}
			}
			dyngraph.ApplyToGraph(g, b)
			for i, mk := range miners {
				a := mk()
				r := core.PlanOf(a).SeedRadius
				after := seedRecords(g, a)
				for _, seeds := range []map[graph.VertexID][]string{before[i], after} {
					for id := range seeds {
						if slices.Equal(before[i][id], after[id]) {
							continue
						}
						changed++
						if !reach[r][id] {
							t.Fatalf("%s batch %d %s: seed %d changed (%q -> %q) outside B (|B|=%d, dirty %v)",
								gname, bi, a.Name(), id, before[i][id], after[id], len(reach[r]), dirty)
						}
					}
				}
			}
			// Ball(G', D, r) ⊆ Ball(G, D, r) ∪ D, the inclusion that lets B be
			// computed on the old graph alone.
			for r, in := range reach {
				for _, id := range dyngraph.Ball(g, dirty, r) {
					if !in[id] {
						t.Fatalf("%s batch %d: %d is within %d hops of the dirty set after the batch but not in B", gname, bi, id, r)
					}
				}
			}
		}
		for _, op := range []string{dyngraph.OpAddEdge, dyngraph.OpDelEdge, dyngraph.OpAddVertex, dyngraph.OpDelVertex} {
			if !kinds[op] {
				t.Errorf("%s: stream has no %s", gname, op)
			}
		}
		if changed == 0 {
			t.Errorf("%s: no seed's records ever changed: the property was not exercised", gname)
		}
		t.Logf("%s: %d per-seed record changes, all inside B", gname, changed)
	}
}
