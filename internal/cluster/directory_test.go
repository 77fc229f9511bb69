package cluster

import (
	"testing"

	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

// The directory's two arms are one function of (graph, assignment): for
// every ID of the graph — and the IDs around and between them — the array
// arm and the hash-table arm name the same owner and hand each worker the
// same vertex object. Only an ID the graph does not hold may differ in
// owner (a block-backed assignment owns whole blocks; the array knows the
// vertex is not there), and then neither arm has a vertex for anybody.
func TestDirectoryArmsAgree(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 3000, Seed: 5})
	base, span, ok := g.DenseIDs()
	if !ok {
		t.Fatal("RMAT IDs are not dense")
	}
	for _, p := range []partition.Partitioner{partition.Hash{}, partition.BDG{}, partition.Blocked{Shift: 3}} {
		assign, err := p.Partition(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		dense := newDirectory(g, assign)
		sparse := &directory{assign: assign}
		sparse.fillSparse(g)
		if !dense.dense() || sparse.dense() {
			t.Fatalf("%s: arms dense=%v sparse=%v", p.Name(), dense.dense(), sparse.dense())
		}
		for id := base - 3; id < base+graph.VertexID(span)+3; id++ {
			if g.Has(id) && dense.owner(id) != sparse.owner(id) {
				t.Fatalf("%s: owner of %d: array %d, tables %d", p.Name(), id, dense.owner(id), sparse.owner(id))
			}
			if !g.Has(id) && dense.owner(id) != -1 {
				t.Fatalf("%s: array arm gives absent ID %d to worker %d", p.Name(), id, dense.owner(id))
			}
			for self := 0; self < assign.K; self++ {
				dv, sv := dense.local(id, self), sparse.local(id, self)
				if dv != sv || (dv != nil) != (g.Has(id) && assign.Owner(id) == self) {
					t.Fatalf("%s: vertex %d as seen by worker %d: array %p, tables %p, owner %d", p.Name(), id, self, dv, sv, assign.Owner(id))
				}
			}
		}
	}
}

// Which arm a graph takes is read off the graph, by the rule TC's bitmap
// goes by: IDs spread wider than 64 slots per vertex fall back to tables.
func TestDirectoryArmFollowsIDSpan(t *testing.T) {
	for _, tc := range []struct {
		stride graph.VertexID
		dense  bool
	}{{1, true}, {64, true}, {65, false}, {1 << 20, false}} {
		g := graph.New(100)
		for i := graph.VertexID(0); i < 100; i++ {
			g.AddEdge(7+i*tc.stride, 7+((i+1)%100)*tc.stride)
		}
		g.Freeze()
		assign, err := partition.Hash{}.Partition(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := newDirectory(g, assign); d.dense() != tc.dense {
			t.Fatalf("stride %d: dense=%v, want %v", tc.stride, d.dense(), tc.dense)
		}
	}
}
