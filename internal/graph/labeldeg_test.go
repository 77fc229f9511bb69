package graph_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
)

// bruteDegrees counts vertex id's neighbours by label the way a walk of its
// list through the label column does.
func bruteDegrees(g *graph.Graph, l *graph.Labels, id graph.VertexID) []graph.LabelCount {
	v := g.Vertex(id)
	if v == nil {
		return nil
	}
	var row []graph.LabelCount
	for _, u := range v.Adj {
		label, ok := l.Of(u)
		if !ok {
			continue
		}
		i, found := slices.BinarySearchFunc(row, label, func(e graph.LabelCount, l int32) int { return cmp.Compare(e.Label, l) })
		if !found {
			row = slices.Insert(row, i, graph.LabelCount{Label: label})
		}
		row[i].Count++
	}
	return row
}

// checkDegrees holds a fresh cut of g's label-degree column to the brute
// count at every slot and a few IDs past either end, and its size to the
// offsets and pairs it holds.
func checkDegrees(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	l := g.LabelColumn()
	if l.DegreeBytes() != 0 {
		t.Fatalf("%s: the column was cut before anyone asked", what)
	}
	pairs := 0
	for id := graph.VertexID(-3); id < graph.VertexID(g.Slots()+3); id++ {
		got, want := l.Degrees(id), bruteDegrees(g, l, id)
		if len(got) != len(want) || len(want) > 0 && !slices.Equal(got, want) {
			t.Fatalf("%s: vertex %d: row %v, brute count %v", what, id, got, want)
		}
		if v := g.Vertex(id); v != nil && len(got) > len(v.Adj) {
			t.Fatalf("%s: vertex %d: %d pairs for %d neighbours", what, id, len(got), len(v.Adj))
		}
		pairs += len(got)
	}
	if want := int64(4*(g.Slots()+1) + 8*pairs); l.DegreeBytes() != want {
		t.Fatalf("%s: %d bytes, want %d", what, l.DegreeBytes(), want)
	}
}

// oddLabels relabels g with labels off the usual alphabet: no label,
// negative, at and past 64, and math.MinInt32, which the label column also
// uses for an empty slot.
func oddLabels(g *graph.Graph) {
	odd := []int32{graph.NoLabel, -7, 0, 3, 63, 64, 1000, math.MinInt32}
	g.ForEach(func(v *graph.Vertex) bool {
		v.Label = odd[int(v.ID)%len(odd)]
		return true
	})
}

// wideLabels relabels g over an alphabet of 301 labels, negative and
// positive.
func wideLabels(g *graph.Graph) {
	g.ForEach(func(v *graph.Vertex) bool {
		v.Label = int32(int(v.ID)*7919%301) - 150
		return true
	})
}

// strided is a copy of g whose external IDs are spread out and shifted.
func strided(g *graph.Graph) *graph.Graph {
	out := graph.New(g.NumVertices())
	g.ForEach(func(v *graph.Vertex) bool {
		out.AddVertex(7*g.External(v.ID) + 3).Label = v.Label
		for _, u := range v.Adj {
			out.AddEdge(7*g.External(v.ID)+3, 7*g.External(u)+3)
		}
		return true
	})
	out.Freeze()
	return out
}

// TestLabelDegreeColumn: every row of the label-degree column is the brute
// count of the vertex's neighbours by label — on dense and strided IDs,
// with dealt labels, with labels off [0, 64) and with an alphabet past 64
// labels, with tombstoned slots and isolated vertices, and at every epoch
// of a mutation stream, each epoch's column cut afresh.
func TestLabelDegreeColumn(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		dense := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1500, Seed: seed})
		gen.DealLabels(dense, 5)
		odd, wide := strided(dense), strided(dense)
		oddLabels(odd)
		wideLabels(wide)
		for name, g := range map[string]*graph.Graph{"dense": dense, "strided": strided(dense), "odd-labels": odd, "wide-alphabet": wide} {
			checkDegrees(t, name, g)

			// A tombstone beside its former neighbours, and an isolated vertex.
			hub := g.VertexAt(0)
			g.ForEach(func(v *graph.Vertex) bool {
				if len(v.Adj) > len(hub.Adj) {
					hub = v
				}
				return true
			})
			g.DynDelVertex(hub.ID)
			g.DynAddVertex(1<<40, 64, nil)
			checkDegrees(t, name+"/tombstone+isolated", g)

			for i, b := range gen.Deltas(g, gen.DeltasConfig{Batches: 6, Ops: 40, Seed: seed}) {
				dyngraph.ApplyToGraph(g, b)
				checkDegrees(t, fmt.Sprintf("%s/epoch %d", name, i+1), g)
			}
		}
	}
}

// BenchmarkLabelDegreeCut times one cut of the label-degree column of the
// batch-gm-compute graph (RMAT-14, 7 dealt labels), the first ask of every
// GM job on a new epoch.
func BenchmarkLabelDegreeCut(b *testing.B) {
	g := gen.RMAT(gen.RMATConfig{Scale: 14, Edges: 250_000, Seed: 42})
	gen.DealLabels(g, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := g.LabelColumn()
		b.StartTimer()
		l.Degrees(0)
	}
}
