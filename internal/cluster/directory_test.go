package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/partition"
)

// The directory's two arms are one function of (graph, assignment): for
// every ID of the graph — and the IDs around and between them — the array
// arm and the hash-table arm name the same owner and hand each worker the
// same vertex object. Only an ID the graph does not hold may differ in owner
// (a block-backed assignment owns whole blocks; the array knows the vertex is
// not there), and then neither arm has a vertex for anybody.
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
		dense := newDirectory(g, assign, nil)
		sparse := &directory{assign: assign, labels: g.LabelColumn()}
		sparse.fillSparse(g, nil)
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

// The label column a directory fills in its pass is the graph's labels,
// whatever they are: on random graphs labelled from NoLabel, other negatives,
// [0, 64), 64 and beyond and the int32 extremes, every ID of the span and
// around it reads (label, true) when the graph holds it and false when not —
// with dense IDs (the flat column, through either directory arm) and with
// strided ones (the index). A vertex carrying the column's empty-slot mark,
// math.MinInt32, sends a dense graph's column to the index instead. Each
// mutation batch's epoch has its own column: a vertex deleted and added back
// under another label reads the new one, a deleted vertex reads false, and a
// vertex added past the span widens it (TestGMPruningFollowsGraphEpoch has
// the next GM job count with the new label).
func TestDirectoryLabelColumn(t *testing.T) {
	agree := func(what string, g *graph.Graph, labels *graph.Labels) {
		t.Helper()
		base, span := g.IDSpan()
		for id := base - 70; id < base+graph.VertexID(span)+70; id++ {
			label, ok := labels.Of(id)
			if v := g.Vertex(id); ok != (v != nil) || ok && label != v.Label {
				t.Fatalf("%s: column says (%d, %v) of ID %d, the graph holds %+v", what, label, ok, id, v)
			}
		}
	}
	draws := []int32{graph.NoLabel, -2, math.MinInt32 + 1, 0, 1, 63, 64, 65, 1000, math.MaxInt32}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 500, Seed: seed})
		g.ForEach(func(v *graph.Vertex) bool {
			v.Label = draws[rng.Intn(len(draws))]
			return true
		})
		marked := seed == 6
		if marked {
			g.Vertex(g.IDs()[rng.Intn(g.NumVertices())]).Label = math.MinInt32
		}
		strided, _ := stridedIDs(g)
		for _, tc := range []struct {
			name  string
			g     *graph.Graph
			k     int
			dense bool // the column's arm
		}{{"dense", g, 3, !marked}, {"dense/sparse-directory", g, denseWorkers + 1, !marked}, {"strided", strided, 3, false}} {
			assign, err := partition.Hash{}.Partition(tc.g, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			d := newDirectory(tc.g, assign, nil)
			if d.labels.Dense() != tc.dense || d.dense() != (tc.g == g && tc.k == 3) {
				t.Fatalf("seed %d %s: column dense=%v, directory dense=%v", seed, tc.name, d.labels.Dense(), d.dense())
			}
			agree(fmt.Sprintf("seed %d %s", seed, tc.name), tc.g, d.labels)
		}
	}

	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 500, Seed: 9})
	gen.DealLabels(g, 7)
	s, err := NewSession(g, dynConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := g.IDs()
	base, span := g.IDSpan()
	for epoch := 1; epoch <= 4; epoch++ {
		relabelled, deleted := ids[epoch], ids[len(ids)-epoch]
		label, fresh := []int32{64, graph.NoLabel, 1000, 0}[epoch-1], int32(62+epoch)
		added := base + graph.VertexID(span) + graph.VertexID(3*epoch)
		ops := []dyngraph.Mutation{{Op: dyngraph.OpDelVertex, ID: relabelled}, {Op: dyngraph.OpAddVertex, ID: relabelled, Label: &label},
			{Op: dyngraph.OpDelVertex, ID: deleted}, {Op: dyngraph.OpAddVertex, ID: added, Label: &fresh}}
		for _, u := range g.Vertex(relabelled).Adj {
			if u != deleted {
				ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: relabelled, W: u})
			}
		}
		if _, err := s.ApplyMutations(dyngraph.Batch{Ops: ops}); err != nil {
			t.Fatal(err)
		}
		labels := s.tables.dir.labels
		if l, ok := labels.Of(relabelled); !ok || l != label || !labels.Dense() {
			t.Fatalf("epoch %d: vertex %d relabelled %d reads (%d, %v), dense column %v", epoch, relabelled, label, l, ok, labels.Dense())
		}
		if _, ok := labels.Of(deleted); ok {
			t.Fatalf("epoch %d: deleted vertex %d still has a label", epoch, deleted)
		}
		agree(fmt.Sprintf("epoch %d", epoch), s.Graph(), labels)
	}
}

// Which arm a graph takes is read off the graph, by the rule TC's bitmap
// goes by: IDs spread wider than 64 slots per vertex fall back to tables —
// as does a cluster with more workers than a slot's owner field can name.
func TestDirectoryArmFollowsIDSpan(t *testing.T) {
	for _, tc := range []struct {
		stride  graph.VertexID
		workers int
		dense   bool
	}{{1, 2, true}, {64, 2, true}, {65, 2, false}, {1 << 20, 2, false}, {1, denseWorkers, true}, {1, denseWorkers + 1, false}} {
		g := graph.New(100)
		for i := graph.VertexID(0); i < 100; i++ {
			g.AddEdge(7+i*tc.stride, 7+((i+1)%100)*tc.stride)
		}
		g.Freeze()
		assign, err := partition.Hash{}.Partition(g, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		d := newDirectory(g, assign, nil)
		if d.dense() != tc.dense {
			t.Fatalf("stride %d, %d workers: dense=%v, want %v", tc.stride, tc.workers, d.dense(), tc.dense)
		}
		g.ForEach(func(v *graph.Vertex) bool {
			if w := assign.Owner(v.ID); d.owner(v.ID) != w || d.local(v.ID, w) != v {
				t.Fatalf("stride %d, %d workers: vertex %d owned by %d reads as owner %d", tc.stride, tc.workers, v.ID, w, d.owner(v.ID))
			}
			return true
		})
	}
}

// The scans cut in the directory's pass are the reference's: for every
// partitioner and on both directory arms, worker w's scan is
// Assignment.Local(g, w) — its own whole-graph pass — sorted by lsh.HashID
// with a comparator, and its footprint the sum over those vertices; a worker
// the caller did not mark gets no scan. The oriented view's tables are the
// base scans with G⁺'s footprints — the partition's, plus the resident lists
// of the other partitions.
func TestScansMatchAssignmentLocal(t *testing.T) {
	dense := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 3000, Seed: 5})
	strided, _ := stridedIDs(dense) // the same edges, IDs too far apart for the array arm
	for gname, g := range map[string]*graph.Graph{"dense": dense, "strided": strided} {
		gplus := graph.Orient(g)
		for _, p := range []partition.Partitioner{partition.Hash{}, partition.BDG{}, partition.Blocked{Shift: 3}} {
			assign, err := p.Partition(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			want := func(view *graph.Graph, w int) *localTable {
				lt := &localTable{ids: assign.Local(view, w)}
				sort.Slice(lt.ids, func(i, j int) bool {
					return lsh.HashID(uint64(lt.ids[i])) < lsh.HashID(uint64(lt.ids[j]))
				})
				for _, id := range lt.ids {
					lt.footprint += view.Vertex(id).FootprintBytes()
				}
				return lt
			}
			vt := newVertexTables(g, assign, []bool{true, false, true})
			if vt.dir.dense() != (g == dense) {
				t.Fatalf("%s/%s: directory dense=%v", gname, p.Name(), vt.dir.dense())
			}
			for w, lt := range vt.locals {
				if w == 1 {
					if lt != nil {
						t.Fatalf("%s/%s: unmarked worker 1 got a scan", gname, p.Name())
					}
					continue
				}
				if ref := want(g, w); len(ref.ids) == 0 || !slices.Equal(lt.ids, ref.ids) || lt.footprint != ref.footprint {
					t.Fatalf("%s/%s: worker %d scan (%d ids, %d B) is not the reference's (%d ids, %d B)",
						gname, p.Name(), w, len(lt.ids), lt.footprint, len(ref.ids), ref.footprint)
				}
			}

			var view orientedView
			tc := algo.NewTriangleCount()
			ot := view.tables(core.PlanOf(tc), g, assign, 0, vt)
			if ot.dir == vt.dir || view.g == nil {
				t.Fatalf("%s/%s: triangle counting did not get the oriented view", gname, p.Name())
			}
			for w, lt := range ot.locals {
				if w == 1 {
					if lt != nil {
						t.Fatalf("%s/%s: the oriented view scans worker 1, the base tables do not", gname, p.Name())
					}
					continue
				}
				ref := want(gplus, w)
				for _, id := range view.residentIDs() {
					if assign.Owner(id) != w {
						ref.footprint += gplus.Vertex(id).FootprintBytes()
					}
				}
				if view.core != nil {
					ref.footprint += view.core.Bytes()
				}
				if !slices.Equal(lt.ids, ref.ids) || lt.footprint != ref.footprint {
					t.Fatalf("%s/%s: worker %d oriented scan (%d ids, %d B) is not the reference's over G⁺ (%d ids, %d B)",
						gname, p.Name(), w, len(lt.ids), lt.footprint, len(ref.ids), ref.footprint)
				}
			}
		}
	}
}
