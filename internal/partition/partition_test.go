package partition_test

import (
	"testing"
	"testing/quick"

	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

func testGraph() *graph.Graph {
	return gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 3})
}

func TestHashCoversAllVertices(t *testing.T) {
	g := testGraph()
	a, err := partition.Hash{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestHashBalance(t *testing.T) {
	g := testGraph()
	a, _ := partition.Hash{}.Partition(g, 4)
	sizes := a.Sizes()
	fair := g.NumVertices() / 4
	for i, s := range sizes {
		if s < fair/2 || s > fair*2 {
			t.Fatalf("partition %d badly balanced: %d (fair %d)", i, s, fair)
		}
	}
}

func TestBDGCoversAllVertices(t *testing.T) {
	g := testGraph()
	a, err := partition.BDG{Seed: 1}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestBDGBalance(t *testing.T) {
	g := testGraph()
	a, _ := partition.BDG{Seed: 1}.Partition(g, 4)
	sizes := a.Sizes()
	fair := g.NumVertices() / 4
	for i, s := range sizes {
		// partition.BDG trades some balance for locality; allow 3x fair share.
		if s > 3*fair {
			t.Fatalf("partition %d holds %d of fair %d", i, s, fair)
		}
	}
}

func TestBDGBeatsHashOnEdgeCut(t *testing.T) {
	// The point of §6.1: block-preserving assignment cuts fewer edges
	// than random hashing, which is what reduces remote pulls (Fig. 11).
	g := testGraph()
	hashA, _ := partition.Hash{}.Partition(g, 4)
	bdgA, _ := partition.BDG{Seed: 1}.Partition(g, 4)
	hc := hashA.EdgeCut(g)
	bc := bdgA.EdgeCut(g)
	if bc >= hc {
		t.Fatalf("partition.BDG cut %.3f not better than hash cut %.3f", bc, hc)
	}
}

func TestBDGHandlesDisconnectedComponents(t *testing.T) {
	// Many tiny components exercise the partition.Hash-Min CC fallback.
	g := graph.New(300)
	for i := 0; i < 100; i++ {
		base := graph.VertexID(i * 3)
		g.AddEdge(base, base+1)
		g.AddEdge(base+1, base+2)
	}
	g.Freeze()
	a, err := partition.BDG{Steps: 1, SourceFrac: 0.001, MaxRounds: 2, Seed: 5}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Components are blocks: no triple should be split.
	for i := 0; i < 100; i++ {
		base := graph.VertexID(i * 3)
		w := a.Owner(base)
		if a.Owner(base+1) != w || a.Owner(base+2) != w {
			t.Fatalf("component %d split across workers", i)
		}
	}
}

func TestSkewedBias(t *testing.T) {
	g := testGraph()
	a, err := partition.Skewed{Bias: 0.7}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes()
	if float64(sizes[0]) < 0.55*float64(g.NumVertices()) {
		t.Fatalf("worker 0 got %d of %d; bias not applied", sizes[0], g.NumVertices())
	}
}

func TestSingleWorker(t *testing.T) {
	g := testGraph()
	for _, p := range []partition.Partitioner{partition.Hash{}, partition.BDG{Seed: 2}, partition.Skewed{Bias: 0.5}} {
		a, err := p.Partition(g, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if a.EdgeCut(g) != 0 {
			t.Fatalf("%s: nonzero edge cut with one worker", p.Name())
		}
	}
}

func TestInvalidK(t *testing.T) {
	g := testGraph()
	for _, p := range []partition.Partitioner{partition.Hash{}, partition.BDG{}, partition.Skewed{}} {
		if _, err := p.Partition(g, 0); err == nil {
			t.Fatalf("%s: expected error for k=0", p.Name())
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(0)
	g.Freeze()
	a, err := partition.BDG{}.Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerUnknown(t *testing.T) {
	g := testGraph()
	a, _ := partition.Hash{}.Partition(g, 2)
	if a.Owner(graph.VertexID(1<<40)) != -1 {
		t.Fatal("unknown vertex should map to -1")
	}
}

// Property: every partitioner assigns every vertex to a worker in range,
// for arbitrary graphs and worker counts.
func TestQuickAssignmentsComplete(t *testing.T) {
	f := func(edges []uint16, k8 uint8) bool {
		k := int(k8%7) + 1
		g := graph.New(64)
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(graph.VertexID(edges[i]%128), graph.VertexID(edges[i+1]%128))
		}
		g.AddVertex(200) // isolated
		g.Freeze()
		for _, p := range []partition.Partitioner{partition.Hash{}, partition.BDG{Seed: int64(k8)}} {
			a, err := p.Partition(g, k)
			if err != nil || a.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Every name a binary's -partitioner accepts maps to its partitioner, the
// same in gminer, gminerd and gminer-worker; any other name is an error.
func TestByName(t *testing.T) {
	for name, want := range map[string]partition.Partitioner{
		"bdg":     partition.BDG{},
		"hash":    partition.Hash{},
		"skewed":  partition.Skewed{Bias: 0.6},
		"blocked": partition.Blocked{},
	} {
		if got, err := partition.ByName(name); err != nil || got != want {
			t.Errorf("ByName(%q) = %#v, %v; want %#v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "BDG", "ldg", "blocked "} {
		if got, err := partition.ByName(name); err == nil {
			t.Errorf("ByName(%q) = %#v, want an error", name, got)
		}
	}
}

// Blocked's owner column is its block placement, vertex by vertex: each
// vertex sits where Place put its block, and the per-worker sizes are the
// placed blocks' sizes.
func TestBlockedOwnerColumnFollowsPlacement(t *testing.T) {
	g := testGraph()
	const k, shift = 3, 4
	a, err := partition.Blocked{Shift: shift}.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	agg := partition.CollectBlocks(g, shift)
	place := agg.Place(k)
	sizes := make([]int, k)
	for blk, w := range place {
		sizes[w] += agg.Size[blk]
	}
	g.ForEach(func(v *graph.Vertex) bool {
		if got, want := a.Owner(v.ID), place[agg.Block(v.ID)]; got != want {
			t.Fatalf("vertex %d on worker %d, its block on %d", v.ID, got, want)
		}
		return true
	})
	for w, n := range a.Sizes() {
		if n != sizes[w] {
			t.Fatalf("sizes %v, placed blocks weigh %v", a.Sizes(), sizes)
		}
	}
	if a.Owner(graph.VertexID(g.Slots())) != -1 {
		t.Fatal("an ID past the graph has an owner")
	}
}
