package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/partition"
)

// The label column a directory fills in its pass is the graph's labels,
// whatever they are: on random graphs labelled from NoLabel, other negatives,
// [0, 64), 64 and beyond and the int32 extremes, every internal ID and the
// IDs around them read (label, true) when the graph holds the vertex and
// false when not — math.MinInt32, the column's empty-slot mark, included. A
// copy of the graph with its external IDs strided apart reads the same
// column. Each mutation batch's epoch has its own column: a vertex deleted
// and added back under another label reads the new one, a deleted vertex
// reads false, and a vertex added past the old slots reads its label
// (TestGMPruningFollowsGraphEpoch has the next GM job count with the new
// label).
func TestDirectoryLabelColumn(t *testing.T) {
	agree := func(what string, g *graph.Graph, labels *graph.Labels) {
		t.Helper()
		for id := graph.VertexID(-70); id < graph.VertexID(g.Slots()+70); id++ {
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
		if seed == 6 {
			g.Vertex(g.IDs()[rng.Intn(g.NumVertices())]).Label = math.MinInt32
		}
		strided, _ := StridedIDs(g)
		var columns []*graph.Labels
		for name, g := range map[string]*graph.Graph{"dense": g, "strided": strided} {
			assign, err := partition.Hash{}.Partition(g, 3)
			if err != nil {
				t.Fatal(err)
			}
			d := newDirectory(g, assign, true, nil)
			agree(fmt.Sprintf("seed %d %s", seed, name), g, d.labels)
			columns = append(columns, d.labels)
		}
		if !reflect.DeepEqual(columns[0], columns[1]) {
			t.Fatalf("seed %d: the strided copy's column differs", seed)
		}
	}

	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 500, Seed: 9})
	gen.DealLabels(g, 7)
	s, err := NewSession(g, dynConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids, ext := g.IDs(), g.External
	for epoch := 1; epoch <= 4; epoch++ {
		relabelled, deleted := ids[epoch], ids[len(ids)-epoch]
		label, fresh := []int32{64, graph.NoLabel, 1000, 0}[epoch-1], int32(62+epoch)
		added := ext(graph.VertexID(g.Slots()-1)) + graph.VertexID(3*epoch)
		ops := []dyngraph.Mutation{{Op: dyngraph.OpDelVertex, ID: ext(relabelled)}, {Op: dyngraph.OpAddVertex, ID: ext(relabelled), Label: &label},
			{Op: dyngraph.OpDelVertex, ID: ext(deleted)}, {Op: dyngraph.OpAddVertex, ID: added, Label: &fresh}}
		for _, u := range g.Vertex(relabelled).Adj {
			if u != deleted {
				ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: ext(relabelled), W: ext(u)})
			}
		}
		if _, err := s.ApplyMutations(dyngraph.Batch{Ops: ops}); err != nil {
			t.Fatal(err)
		}
		labels := s.tables.dir.labels
		if l, ok := labels.Of(relabelled); !ok || l != label {
			t.Fatalf("epoch %d: vertex %d relabelled %d reads (%d, %v)", epoch, relabelled, label, l, ok)
		}
		if _, ok := labels.Of(deleted); ok {
			t.Fatalf("epoch %d: deleted vertex %d still has a label", epoch, deleted)
		}
		if id, _ := g.Lookup(added); id != graph.VertexID(g.Slots()-1) {
			t.Fatalf("epoch %d: new external ID %d got internal ID %d, not the last slot", epoch, added, id)
		}
		agree(fmt.Sprintf("epoch %d", epoch), s.Graph(), labels)
	}
}

// A directory slot names any worker — owners past 16 bits read back
// exactly — and still takes 16 bytes.
func TestDirectoryArmFollowsIDSpan(t *testing.T) {
	if size := unsafe.Sizeof(dirSlot{}); size != 16 {
		t.Fatalf("a directory slot takes %d bytes, want 16", size)
	}
	for _, workers := range []int{2, math.MaxInt16, math.MaxInt16 + 1, 1 << 20} {
		g := graph.New(100)
		for i := graph.VertexID(0); i < 100; i++ {
			g.AddEdge(7+i, 7+(i+1)%100)
		}
		g.Freeze()
		assign, err := partition.Hash{}.Partition(g, workers)
		if err != nil {
			t.Fatal(err)
		}
		d := newDirectory(g, assign, true, nil)
		widest := 0
		g.ForEach(func(v *graph.Vertex) bool {
			w := assign.Owner(v.ID)
			if d.owner(v.ID) != w || d.local(v.ID, w) != v {
				t.Fatalf("%d workers: vertex %d owned by %d reads as owner %d", workers, v.ID, w, d.owner(v.ID))
			}
			widest = max(widest, w)
			return true
		})
		if d.owner(-1) != -1 || d.owner(graph.VertexID(g.Slots())) != -1 {
			t.Fatalf("%d workers: an ID past the slots has an owner", workers)
		}
		if workers > math.MaxUint16+1 && widest <= math.MaxUint16 {
			t.Fatalf("%d workers: no owner is wider than 16 bits (widest %d)", workers, widest)
		}
	}
}

// The scans cut in the directory's pass are the reference's: for every
// partitioner, on a graph and on its copy with the external IDs strided
// apart — whose scans are the same — worker w's scan is
// Assignment.Local(g, w) — its own whole-graph pass — sorted by lsh.HashID
// with a comparator, and its footprint the sum over those vertices; a worker
// the caller did not mark gets no scan. The oriented view's tables are the
// base scans with G⁺'s footprints — the partition's, plus the resident lists
// of the other partitions.
func TestScansMatchAssignmentLocal(t *testing.T) {
	dense := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 3000, Seed: 5})
	strided, _ := StridedIDs(dense) // the same edges, the external IDs far apart
	scans := map[string][]*localTable{}
	for _, gname := range []string{"dense", "strided"} {
		g := map[string]*graph.Graph{"dense": dense, "strided": strided}[gname]
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
			if ref := scans[p.Name()]; ref != nil && !reflect.DeepEqual(vt.locals, ref) {
				t.Fatalf("%s/%s: the scans differ from the dense graph's", gname, p.Name())
			}
			scans[p.Name()] = vt.locals
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

// TestEdgeCutMatchesAssignment: the edge cut a session reads from its
// directory equals partition.Assignment.EdgeCut at every epoch of a mutation
// stream — the batches move owners and add slots — and a copy of the graph
// with its external IDs strided apart, fed the same stream relabelled, cuts
// the same edges.
func TestEdgeCutMatchesAssignment(t *testing.T) {
	dense := gen.ErdosRenyi(400, 1600, 21)
	strided, _ := StridedIDs(gen.ErdosRenyi(400, 1600, 21))
	var sessions []*Session
	var streams [][]dyngraph.Batch
	for _, g := range []*graph.Graph{dense, strided} {
		s, err := NewSession(g, dynConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions = append(sessions, s)
		streams = append(streams, gen.Deltas(g, gen.DeltasConfig{Batches: 4, Ops: 60, Seed: 9}))
	}
	for epoch := 0; epoch <= len(streams[0]); epoch++ {
		var cuts []float64
		for i, s := range sessions {
			if epoch > 0 {
				if _, err := s.ApplyMutations(streams[i][epoch-1]); err != nil {
					t.Fatalf("session %d, batch %d: %v", i, epoch-1, err)
				}
			}
			if got, want := s.EdgeCut(), s.assign.EdgeCut(s.g); got != want || want == 0 {
				t.Errorf("session %d, epoch %d: directory cut %v, assignment cut %v", i, epoch, got, want)
			}
			cuts = append(cuts, s.EdgeCut())
		}
		if cuts[0] != cuts[1] {
			t.Errorf("epoch %d: the dense graph cuts %v, its strided copy %v", epoch, cuts[0], cuts[1])
		}
	}
}
