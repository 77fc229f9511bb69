package algo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gminer/internal/gen"
	"gminer/internal/graph"
)

// bruteTriangles enumerates all vertex triples — the independent oracle
// for RefTriangles.
func bruteTriangles(g *graph.Graph) int64 {
	ids := g.IDs()
	var count int64
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if !g.Vertex(ids[i]).HasNeighbor(ids[j]) {
				continue
			}
			for k := j + 1; k < len(ids); k++ {
				if g.Vertex(ids[i]).HasNeighbor(ids[k]) && g.Vertex(ids[j]).HasNeighbor(ids[k]) {
					count++
				}
			}
		}
	}
	return count
}

// bruteMaxClique checks every vertex subset (tiny graphs only).
func bruteMaxClique(g *graph.Graph) int {
	ids := g.IDs()
	n := len(ids)
	best := 0
	if n == 0 {
		return 0
	}
	for mask := 1; mask < (1 << n); mask++ {
		var members []graph.VertexID
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, ids[i])
			}
		}
		ok := true
		for i := 0; i < len(members) && ok; i++ {
			for j := i + 1; j < len(members); j++ {
				if !g.Vertex(members[i]).HasNeighbor(members[j]) {
					ok = false
					break
				}
			}
		}
		if ok && len(members) > best {
			best = len(members)
		}
	}
	return best
}

// bruteMatchCount enumerates homomorphisms recursively.
func bruteMatchCount(g *graph.Graph, p *Pattern) int64 {
	var count int64
	assign := make([]graph.VertexID, len(p.Labels))
	var rec func(node int)
	rec = func(node int) {
		if node == len(p.Labels) {
			count++
			return
		}
		g.ForEach(func(v *graph.Vertex) bool {
			if v.Label != p.Labels[node] {
				return true
			}
			if par := p.Parent[node]; par >= 0 && !v.HasNeighbor(assign[par]) {
				return true
			}
			assign[node] = v.ID
			rec(node + 1)
			return true
		})
	}
	rec(0)
	return count
}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.VertexID(i))
	}
	for e := 0; e < m; e++ {
		g.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	g.Freeze()
	return g
}

func TestRefTrianglesAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, 12, 30)
		if got, want := RefTriangles(g), bruteTriangles(g); got != want {
			t.Fatalf("seed %d: got %d want %d", seed, got, want)
		}
	}
}

func TestRefMaxCliqueAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, 12, 40)
		if got, want := RefMaxClique(g), bruteMaxClique(g); got != want {
			t.Fatalf("seed %d: got %d want %d", seed, got, want)
		}
	}
}

func TestRefMatchCountAgainstBruteForce(t *testing.T) {
	p := FigurePattern()
	for seed := int64(0); seed < 15; seed++ {
		g := randomGraph(seed, 14, 40)
		gen.AssignLabels(g, 5, seed)
		if got, want := RefMatchCount(g, p), bruteMatchCount(g, p); got != want {
			t.Fatalf("seed %d: got %d want %d", seed, got, want)
		}
	}
}

func TestRefMatchCountPathPattern(t *testing.T) {
	p := PathPattern(0, 1, 0)
	for seed := int64(20); seed < 30; seed++ {
		g := randomGraph(seed, 10, 25)
		gen.AssignLabels(g, 3, seed)
		if got, want := RefMatchCount(g, p), bruteMatchCount(g, p); got != want {
			t.Fatalf("seed %d: got %d want %d", seed, got, want)
		}
	}
}

func TestRefMaxCliqueEdgeCases(t *testing.T) {
	empty := graph.New(0)
	empty.Freeze()
	if RefMaxClique(empty) != 0 {
		t.Fatal("empty graph clique should be 0")
	}
	single := graph.New(1)
	single.AddVertex(1)
	single.Freeze()
	if RefMaxClique(single) != 1 {
		t.Fatal("single vertex clique should be 1")
	}
	edge := graph.New(2)
	edge.AddEdge(1, 2)
	edge.Freeze()
	if RefMaxClique(edge) != 2 {
		t.Fatal("single edge clique should be 2")
	}
}

func TestSearchMaxCliqueExported(t *testing.T) {
	// K4 with a pendant.
	g := graph.New(5)
	for i := 1; i <= 4; i++ {
		for j := i + 1; j <= 4; j++ {
			g.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	g.AddEdge(4, 5)
	g.Freeze()
	ids := []graph.VertexID{2, 3, 4, 5}
	verts := make([]*graph.Vertex, len(ids))
	for i, id := range ids {
		verts[i] = g.Vertex(id)
	}
	best, members := SearchMaxClique(ids, verts, 1, nil)
	if best != 4 || len(members) != 3 {
		t.Fatalf("best=%d members=%v", best, members)
	}
}

func TestPatternValidation(t *testing.T) {
	if _, err := NewPattern(nil, nil); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := NewPattern([]int32{0}, []int{0}); err == nil {
		t.Fatal("non-root node 0 accepted")
	}
	if _, err := NewPattern([]int32{0, 1}, []int{-1, 5}); err == nil {
		t.Fatal("forward parent accepted")
	}
	p := FigurePattern()
	if p.Depth() != 2 || len(p.Levels()[0]) != 1 || len(p.Levels()[1]) != 2 {
		t.Fatalf("figure pattern structure wrong: %+v", p.Levels())
	}
	if len(p.Children(2)) != 2 {
		t.Fatalf("children of c: %v", p.Children(2))
	}
}

func TestSimilarityHelpers(t *testing.T) {
	if s := attrSimilarity([]int32{1, 2, 3}, []int32{1, 2, 4}); s < 0.66 || s > 0.67 {
		t.Fatalf("sim=%f", s)
	}
	if attrSimilarity(nil, []int32{1}) != 0 {
		t.Fatal("empty sim should be 0")
	}
	w := weightedSimilarity([]int32{1, 2}, []int32{1, 9}, []float64{1, 0})
	if w != 1.0 {
		t.Fatalf("weighted sim=%f (zero-weight dim must not count)", w)
	}
}

func TestIntersectSorted(t *testing.T) {
	a := []graph.VertexID{1, 3, 5, 7}
	b := []graph.VertexID{2, 3, 5, 8}
	if intersectSorted(a, b) != 2 {
		t.Fatal("intersect wrong")
	}
	if intersectSorted(a, nil) != 0 {
		t.Fatal("empty intersect")
	}
}

func TestRefCommunitiesFindPlanted(t *testing.T) {
	g, _ := gen.Community(gen.CommunityConfig{
		Communities: 8, MinSize: 6, MaxSize: 8, PIn: 0.9, Bridges: 20, Seed: 3,
	})
	out := RefCommunities(g, NewCommunityDetect(0.6, 4))
	if len(out) < 4 {
		t.Fatalf("found only %d communities in a strongly planted graph", len(out))
	}
}

func TestRefClustersFindFocused(t *testing.T) {
	g, _ := gen.Community(gen.CommunityConfig{
		Communities: 8, MinSize: 8, MaxSize: 10, PIn: 0.9, Bridges: 10, Seed: 5,
	})
	ex := g.VertexAt(0).Attrs
	out := RefClusters(g, NewGraphCluster([][]int32{ex}, 0.8, 0.3, 3))
	if len(out) == 0 {
		t.Fatal("no focused clusters found")
	}
}

// Property: triangle reference matches brute force on arbitrary small
// graphs.
func TestQuickTriangles(t *testing.T) {
	f := func(edges []uint8) bool {
		g := graph.New(10)
		for i := 0; i < 10; i++ {
			g.AddVertex(graph.VertexID(i))
		}
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(graph.VertexID(edges[i]%10), graph.VertexID(edges[i+1]%10))
		}
		g.Freeze()
		return RefTriangles(g) == bruteTriangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: clique search matches brute force on arbitrary small graphs.
func TestQuickMaxClique(t *testing.T) {
	f := func(edges []uint8) bool {
		g := graph.New(9)
		for i := 0; i < 9; i++ {
			g.AddVertex(graph.VertexID(i))
		}
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(graph.VertexID(edges[i]%9), graph.VertexID(edges[i+1]%9))
		}
		g.Freeze()
		return RefMaxClique(g) == bruteMaxClique(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: GM DP matches brute-force homomorphism counting for random
// patterns.
func TestQuickMatchCount(t *testing.T) {
	f := func(seed int64, patSeed uint8) bool {
		rng := rand.New(rand.NewSource(int64(patSeed)))
		// Random tree pattern with 2..5 nodes, labels in [0,3).
		n := 2 + rng.Intn(4)
		labels := make([]int32, n)
		parent := make([]int, n)
		parent[0] = -1
		for i := 0; i < n; i++ {
			labels[i] = rng.Int31n(3)
			if i > 0 {
				parent[i] = rng.Intn(i)
			}
		}
		// NewPattern requires BFS order (parent depth increasing) — random
		// parents of earlier nodes satisfy parent[i] < i, which is enough.
		p, err := NewPattern(labels, parent)
		if err != nil {
			return false
		}
		g := randomGraph(seed, 10, 22)
		gen.AssignLabels(g, 3, seed)
		return RefMatchCount(g, p) == bruteMatchCount(g, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The records of CD, GC, QC and MCF end in formatIDs, which builds in one
// buffer exactly what the formatter it replaced built with += and Sprintf
// (kept here as the reference): the IDs as %d prints them, one space apart.
func TestFormatIDsMatchesSprintf(t *testing.T) {
	ref := func(ids []graph.VertexID) string {
		out := ""
		for i, id := range ids {
			if i > 0 {
				out += " "
			}
			out += fmt.Sprintf("%d", id)
		}
		return out
	}
	same := func(ids []graph.VertexID) bool { return formatIDs(ids) == ref(ids) }
	for _, ids := range [][]graph.VertexID{nil, {}, {0}, {-1, 0, 9, 10}, {math.MinInt64, math.MaxInt64}} {
		if !same(ids) {
			t.Fatalf("formatIDs(%v) = %q, want %q", ids, formatIDs(ids), ref(ids))
		}
	}
	if err := quick.Check(same, nil); err != nil {
		t.Fatal(err)
	}
}
