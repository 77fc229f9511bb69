package graph_test

import (
	"reflect"
	"testing"

	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
)

// checkReorient patches prev into g's view and holds the patch to Reorient's
// contract: deep-equal to a fresh Orient(g), and not one vertex or forward
// list shared with prev. It returns the patch and the rows it cut.
func checkReorient(t testing.TB, g, prev *graph.Graph, touched map[graph.VertexID]struct{}) (*graph.Graph, int) {
	t.Helper()
	got, rows := graph.Reorient(g, prev, touched)
	if want := graph.Orient(g); !reflect.DeepEqual(got, want) {
		for i := 0; i < g.Slots(); i++ {
			if a, b := got.VertexAt(i), want.VertexAt(i); !reflect.DeepEqual(a, b) {
				t.Fatalf("slot %d: patched row %+v, fresh orientation %+v", i, a, b)
			}
		}
		t.Fatal("the patched view differs from a fresh orientation beyond its rows")
	}
	held := map[any]bool{}
	prev.ForEach(func(v *graph.Vertex) bool {
		held[v] = true
		if len(v.Adj) > 0 {
			held[&v.Adj[0]] = true
		}
		return true
	})
	got.ForEach(func(v *graph.Vertex) bool {
		if held[v] || len(v.Adj) > 0 && held[&v.Adj[0]] {
			t.Fatalf("vertex %d: the patch shares its row with the previous view", v.ID)
		}
		return true
	})
	return got, rows
}

// touchedBy applies b to g through st and returns what it touched.
func touchedBy(t testing.TB, st *dyngraph.State, g *graph.Graph, b dyngraph.Batch) map[graph.VertexID]struct{} {
	t.Helper()
	info, err := st.Apply(g, b)
	if err != nil {
		t.Fatal(err)
	}
	return info.Touched
}

// TestReorientMatchesOrient: over gen.Deltas streams on community, RMAT and
// Erdős–Rényi graphs, a view patched batch by batch — or once over several
// batches — is the fresh orientation of the mutated graph, byte for byte, and
// cuts fewer rows than a fresh one. The stream ends in the shapes that move
// most: a hub deleted, an ID deleted and re-created in one batch, and a batch
// naming an external ID far past the others, which takes the next internal
// ID like any other.
func TestReorientMatchesOrient(t *testing.T) {
	for name, build := range map[string]func() *graph.Graph{
		"community": func() *graph.Graph {
			g, _ := gen.Community(gen.CommunityConfig{Communities: 60, MinSize: 5, MaxSize: 12, PIn: 0.6, Bridges: 200, Seed: 7})
			return g
		},
		"rmat": func() *graph.Graph { return gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 8000, Seed: 7}) },
		"er":   func() *graph.Graph { return gen.ErdosRenyi(600, 2400, 7) },
	} {
		t.Run(name, func(t *testing.T) {
			g := build()
			st, err := dyngraph.NewState(g, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			stream := gen.Deltas(g, gen.DeltasConfig{Batches: 12, Ops: 40, Seed: 11})
			view := graph.Orient(g)
			patch := func(what string, touched map[graph.VertexID]struct{}) int {
				t.Helper()
				next, rows := checkReorient(t, g, view, touched)
				view = next
				t.Logf("%s: %d of %d rows cut", what, rows, g.NumVertices())
				return rows
			}
			for i, b := range stream[:6] {
				if rows := patch("batch", touchedBy(t, st, g, b)); rows >= g.NumVertices() {
					t.Fatalf("batch %d: the patch cut all %d rows", i, rows)
				}
			}
			pending := map[graph.VertexID]struct{}{}
			for _, b := range stream[6:] {
				for id := range touchedBy(t, st, g, b) {
					pending[id] = struct{}{}
				}
			}
			if rows := patch("six batches at once", pending); rows >= g.NumVertices() {
				t.Fatalf("six batches: the patch cut all %d rows", rows)
			}

			var hub *graph.Vertex
			g.ForEach(func(v *graph.Vertex) bool {
				if hub == nil || len(v.Adj) > len(hub.Adj) {
					hub = v
				}
				return true
			})
			ext := g.External
			patch("hub deleted", touchedBy(t, st, g, dyngraph.Batch{Ops: []dyngraph.Mutation{
				{Op: dyngraph.OpDelVertex, ID: ext(hub.ID)},
				{Op: dyngraph.OpAddEdge, U: ext(hub.Adj[0]), W: ext(hub.Adj[len(hub.Adj)-1])},
			}}))

			// The re-created vertex takes its old slot back: its row must be
			// cut again, not copied.
			ids := g.IDs()
			again := ext(ids[len(ids)/3])
			patch("deleted and re-created", touchedBy(t, st, g, dyngraph.Batch{Ops: []dyngraph.Mutation{
				{Op: dyngraph.OpDelVertex, ID: again},
				{Op: dyngraph.OpAddVertex, ID: again},
				{Op: dyngraph.OpAddEdge, U: again, W: ext(ids[0])},
				{Op: dyngraph.OpAddEdge, U: again, W: ext(ids[len(ids)-1])},
			}}))

			far, slots := ext(ids[len(ids)-1])<<20, g.Slots()
			patch("far ID", touchedBy(t, st, g, dyngraph.Batch{Ops: []dyngraph.Mutation{
				{Op: dyngraph.OpAddEdge, U: far, W: ext(ids[1])},
				{Op: dyngraph.OpAddEdge, U: far, W: ext(ids[2])},
			}}))
			if id, ok := g.Lookup(far); !ok || id != graph.VertexID(slots) {
				t.Fatalf("far external ID %d got internal ID %d (%v), want %d", far, id, ok, slots)
			}
			for i, b := range gen.Deltas(g, gen.DeltasConfig{Batches: 3, Ops: 40, Seed: 12}) {
				if rows := patch("batch past the far ID", touchedBy(t, st, g, b)); rows >= g.NumVertices() {
					t.Fatalf("batch %d past the far ID: the patch cut all %d rows", i, rows)
				}
			}
		})
	}
}

// FuzzReorient cross-checks patched views against Orient on graphs and
// batches the fuzzer draws. The first byte counts the edge pairs that build
// the graph; the rest are (op, x, y) triples over up to 48 IDs — 250 and up
// name external IDs far apart — split into batches where
// an op byte ≡ 4 (mod 5) ends one. One view is patched after every batch,
// another once over all of them; both must equal the fresh orientation.
func FuzzReorient(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 0, 2, 3, 0, 3, 1, 3, 4, 0, 0, 1, 0, 1, 2, 4, 0, 0})
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 2, 0, 0, 1, 0, 4, 9, 0, 0, 1, 0, 0, 1, 3})
	f.Add([]byte{2, 5, 6, 6, 7, 0, 5, 251, 1, 7, 252, 9, 0, 0, 0, 3, 5, 6})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 1 {
			return
		}
		id := func(b byte) graph.VertexID {
			if b >= 250 {
				return graph.VertexID(b) << 36
			}
			return graph.VertexID(b % 48)
		}
		g := graph.New(0)
		pairs, rest := int(raw[0]), raw[1:]
		for ; pairs > 0 && len(rest) >= 2; pairs, rest = pairs-1, rest[2:] {
			g.AddEdge(id(rest[0]), id(rest[1]))
		}
		g.Freeze()
		if g.NumVertices() == 0 {
			return
		}
		var batches []dyngraph.Batch
		var ops []dyngraph.Mutation
		for ; len(rest) >= 3; rest = rest[3:] {
			x, y := id(rest[1]), id(rest[2])
			switch rest[0] % 5 {
			case 0:
				if x != y {
					ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: x, W: y})
				}
			case 1:
				if x != y {
					ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpDelEdge, U: x, W: y})
				}
			case 2:
				ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpAddVertex, ID: x})
			case 3:
				ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpDelVertex, ID: x})
			case 4:
				if len(ops) > 0 {
					batches, ops = append(batches, dyngraph.Batch{Ops: ops}), nil
				}
			}
		}
		if len(ops) > 0 {
			batches = append(batches, dyngraph.Batch{Ops: ops})
		}
		st, err := dyngraph.NewState(g, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		first := graph.Orient(g)
		each, all := first, map[graph.VertexID]struct{}{}
		for _, b := range batches {
			info, err := st.Apply(g, b)
			if err != nil {
				return // a batch that would empty the graph: refused, and the stream ends
			}
			for v := range info.Touched {
				all[v] = struct{}{}
			}
			each, _ = checkReorient(t, g, each, info.Touched)
		}
		checkReorient(t, g, first, all)
	})
}

// BenchmarkOrientEpoch cuts one epoch's G⁺ on the dynamic benchmark's
// community graph after one 128-op gen.Deltas batch: "full" orients the
// mutated graph afresh, "patched" patches the previous epoch's view on the
// vertices the batch touched. rows/op is the rows each cut cuts.
func BenchmarkOrientEpoch(b *testing.B) {
	g, _ := gen.Community(gen.CommunityConfig{Communities: 1024, MinSize: 8, MaxSize: 16, PIn: 0.7, Bridges: 10240, Seed: 42})
	st, err := dyngraph.NewState(g, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	stream := gen.Deltas(g, gen.DeltasConfig{Batches: 4, Ops: 128, Seed: 42})
	var prev *graph.Graph
	var touched map[graph.VertexID]struct{}
	for _, batch := range stream {
		prev = graph.Orient(g)
		touched = touchedBy(b, st, g, batch)
	}
	cuts := map[string]func() (*graph.Graph, int){
		"full":    func() (*graph.Graph, int) { return graph.Orient(g), g.NumVertices() },
		"patched": func() (*graph.Graph, int) { return graph.Reorient(g, prev, touched) },
	}
	for _, name := range []string{"full", "patched"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				sinkView, rows = cuts[name]()
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}

var sinkView *graph.Graph
