package dyngraph_test

import (
	"reflect"
	"testing"

	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

// localIDs snapshots Assignment.Local for every worker.
func localIDs(g *graph.Graph, a *partition.Assignment, k int) [][]graph.VertexID {
	out := make([][]graph.VertexID, k)
	for w := 0; w < k; w++ {
		out[w] = a.Local(g, w)
	}
	return out
}

// TestStateMatchesScratch is the incremental-repartitioning differential
// gate: after every batch of several seeded mutation streams on ER and
// RMAT graphs, the incrementally maintained assignment must be identical
// to a from-scratch Blocked.Partition of a replayed graph — same owner for
// every vertex, same sizes, same per-worker local ID lists.
func TestStateMatchesScratch(t *testing.T) {
	const k = 4
	const shift = 4 // small blocks → plenty of blocks → real movement
	builders := map[string]func() *graph.Graph{
		"er":   func() *graph.Graph { return gen.ErdosRenyi(400, 1200, 11) },
		"rmat": func() *graph.Graph { return gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2048, Seed: 7}) },
	}
	for name, build := range builders {
		for _, seed := range []int64{1, 2, 3} {
			g := build()
			st, err := dyngraph.NewState(g, k, shift)
			if err != nil {
				t.Fatal(err)
			}
			// Epoch 0: incremental state must equal the partitioner.
			scratch, err := partition.Blocked{Shift: shift}.Partition(g, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(localIDs(g, st.Assignment(), k), localIDs(g, scratch, k)) {
				t.Fatalf("%s/seed%d: epoch 0 state != Blocked.Partition", name, seed)
			}

			batches := gen.Deltas(g, gen.DeltasConfig{Batches: 4, Ops: 48, Seed: seed})
			replay := build() // from-scratch comparator, fed the same stream
			prevPlace := partition.CollectBlocks(replay, shift).Place(k)
			for bi, b := range batches {
				prev := scratch
				info, err := st.Apply(g, b)
				if err != nil {
					t.Fatalf("%s/seed%d batch %d: %v", name, seed, bi, err)
				}
				if info.Epoch != int64(bi+1) {
					t.Fatalf("epoch = %d, want %d", info.Epoch, bi+1)
				}
				dyngraph.ApplyToGraph(replay, b)

				// The mutated graph must equal the replayed graph exactly.
				if err := g.Validate(); err != nil {
					t.Fatalf("%s/seed%d batch %d: %v", name, seed, bi, err)
				}
				if !reflect.DeepEqual(g.IDs(), replay.IDs()) {
					t.Fatalf("%s/seed%d batch %d: vertex sets diverged", name, seed, bi)
				}
				same := true
				g.ForEach(func(v *graph.Vertex) bool {
					r := replay.Vertex(v.ID)
					if r == nil || !reflect.DeepEqual(v.Adj, r.Adj) || v.Label != r.Label || !reflect.DeepEqual(v.Attrs, r.Attrs) {
						same = false
						return false
					}
					return true
				})
				if !same {
					t.Fatalf("%s/seed%d batch %d: adjacency diverged", name, seed, bi)
				}

				// Incremental assignment == from-scratch partition of the
				// mutated graph.
				scratch, err = partition.Blocked{Shift: shift}.Partition(replay, k)
				if err != nil {
					t.Fatal(err)
				}
				// MovedBlocks and DirtyWorkers against the two from-scratch
				// placements around the batch: a block moved if it changed
				// workers, appeared or emptied out; a worker is dirty if it
				// owned a touched vertex before or after, or either side of a
				// moved block.
				place := partition.CollectBlocks(replay, shift).Place(k)
				moved, dirty := 0, make([]bool, k)
				for id := range info.Touched {
					for _, w := range []int{prev.Owner(id), scratch.Owner(id)} {
						if w >= 0 {
							dirty[w] = true
						}
					}
				}
				for blk, w := range prevPlace {
					if nw, ok := place[blk]; !ok || nw != w {
						moved++
						dirty[w] = true
					}
				}
				for blk, nw := range place {
					if w, ok := prevPlace[blk]; !ok || nw != w {
						dirty[nw] = true
						if !ok {
							moved++
						}
					}
				}
				if info.MovedBlocks != moved || !reflect.DeepEqual(info.DirtyWorkers, dirty) {
					t.Fatalf("%s/seed%d batch %d: moved %d dirty %v, scratch placements give %d %v",
						name, seed, bi, info.MovedBlocks, info.DirtyWorkers, moved, dirty)
				}
				prevPlace = place
				if got, want := st.Assignment().Sizes(), scratch.Sizes(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/seed%d batch %d: sizes %v != scratch %v", name, seed, bi, got, want)
				}
				if !reflect.DeepEqual(localIDs(g, st.Assignment(), k), localIDs(replay, scratch, k)) {
					t.Fatalf("%s/seed%d batch %d: local tables diverged from scratch", name, seed, bi)
				}
			}
		}
	}
}

// TestDirtyWorkersAreExact checks the contract the Session relies on: a
// worker NOT marked dirty by Apply has an unchanged local ID list and
// unchanged vertex structure (footprints), so skipping its table rebuild
// is lossless.
func TestDirtyWorkersAreExact(t *testing.T) {
	const k = 4
	const shift = 4
	g := gen.ErdosRenyi(400, 1200, 5)
	st, err := dyngraph.NewState(g, k, shift)
	if err != nil {
		t.Fatal(err)
	}
	batches := gen.Deltas(g, gen.DeltasConfig{Batches: 5, Ops: 24, Seed: 9})
	for bi, b := range batches {
		before := localIDs(g, st.Assignment(), k)
		foot := make(map[graph.VertexID]int64)
		g.ForEach(func(v *graph.Vertex) bool {
			foot[v.ID] = v.FootprintBytes()
			return true
		})
		info, err := st.Apply(g, b)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		after := localIDs(g, st.Assignment(), k)
		for w := 0; w < k; w++ {
			if info.DirtyWorkers[w] {
				continue
			}
			if !reflect.DeepEqual(before[w], after[w]) {
				t.Fatalf("batch %d: worker %d not dirty but local set changed", bi, w)
			}
			for _, id := range after[w] {
				if g.Vertex(id).FootprintBytes() != foot[id] {
					t.Fatalf("batch %d: worker %d not dirty but vertex %d structure changed", bi, w, id)
				}
			}
		}
	}
}

func TestTrianglesTouchingMatchesNaive(t *testing.T) {
	g := gen.ErdosRenyi(200, 1400, 3)
	st, err := dyngraph.NewState(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := countTriangles(g, nil)
	for bi, b := range gen.Deltas(g, gen.DeltasConfig{Batches: 4, Ops: 32, Seed: 17}) {
		dirty := b.DirtyIDs(g)
		pre := dyngraph.TrianglesTouching(g, dirty)
		if _, err := st.Apply(g, b); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		post := dyngraph.TrianglesTouching(g, dirty)

		ds := make(map[graph.VertexID]bool, len(dirty))
		for _, d := range dirty {
			ds[d] = true
		}
		wantTotal, wantTouch := countTriangles(g, ds)
		if post != wantTouch {
			t.Fatalf("batch %d: TrianglesTouching = %d, naive = %d", bi, post, wantTouch)
		}
		// The incremental identity behind the standing TC path.
		total = total - pre + post
		if total != wantTotal {
			t.Fatalf("batch %d: incremental count %d != naive %d", bi, total, wantTotal)
		}
	}
}

func countTriangles(g *graph.Graph, dirty map[graph.VertexID]bool) (total, touching int64) {
	g.ForEach(func(v *graph.Vertex) bool {
		for i, u := range v.Adj {
			if u < v.ID {
				continue
			}
			vu := g.Vertex(u)
			for _, w := range v.Adj[i+1:] {
				if vu.HasNeighbor(w) {
					total++
					if dirty == nil || dirty[v.ID] || dirty[u] || dirty[w] {
						touching++
					}
				}
			}
		}
		return true
	})
	return
}
