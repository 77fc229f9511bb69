package plan

import (
	"math/rand"
	"reflect"
	"testing"

	"gminer/internal/graph"
	"gminer/internal/kernels"
)

// buildGraph freezes a small test graph from an edge list; labels maps
// vertex ID → label for labeled tests (absent IDs stay unlabeled).
func buildGraph(t testing.TB, n int, edges [][2]int64, labels map[int64]int32) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.VertexID(i))
	}
	for _, e := range edges {
		g.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	for id, l := range labels {
		g.SetLabel(graph.VertexID(id), l)
	}
	g.Freeze()
	if err := g.Validate(); err != nil {
		t.Fatalf("test graph invalid: %v", err)
	}
	return g
}

// bruteEmbeddings counts distinct embeddings of a pattern by exhaustive
// injective backtracking in ID space, divided by the automorphism count —
// the slow oracle the plan executor must agree with.
func bruteEmbeddings(g *graph.Graph, n int, edges [][2]int, aut int) int64 {
	padj := make([][]bool, n)
	for i := range padj {
		padj[i] = make([]bool, n)
	}
	for _, e := range edges {
		padj[e[0]][e[1]], padj[e[1]][e[0]] = true, true
	}
	ids := g.IDs()
	assigned := make([]graph.VertexID, n)
	var maps int64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			maps++
			return
		}
	next:
		for _, v := range ids {
			for j := 0; j < i; j++ {
				if assigned[j] == v {
					continue next
				}
				if padj[i][j] && !g.Vertex(v).HasNeighbor(assigned[j]) {
					continue next
				}
			}
			assigned[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return maps / int64(aut)
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name   string
		labels []int32
		parent []int
	}{
		{"empty", nil, nil},
		{"len_mismatch", []int32{0, 1}, []int{-1}},
		{"bad_root", []int32{0}, []int{0}},
		{"parent_after_child", []int32{0, 1, 2}, []int{-1, 2, 0}},
		{"parent_negative", []int32{0, 1}, []int{-1, -2}},
		{"parent_self", []int32{0, 1}, []int{-1, 1}},
	}
	for _, c := range cases {
		if _, err := Compile(c.labels, c.parent); err == nil {
			t.Errorf("%s: Compile accepted invalid pattern", c.name)
		}
	}
	big := make([]int32, MaxTreeNodes+1)
	bigP := make([]int, MaxTreeNodes+1)
	bigP[0] = -1
	for i := 1; i < len(bigP); i++ {
		bigP[i] = i - 1
	}
	if _, err := Compile(big, bigP); err == nil {
		t.Errorf("Compile accepted oversize pattern")
	}
}

func TestCompileLevels(t *testing.T) {
	// The paper's Figure 6 pattern: root 0, children 1 and 2, 2's children
	// 3 and 4.
	p, err := Compile([]int32{0, 1, 2, 1, 3}, []int{-1, 0, 0, 2, 2})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Mode != ModeHom || p.Depth() != 2 {
		t.Fatalf("mode=%v depth=%d, want hom/2", p.Mode, p.Depth())
	}
	wantLevels := [][]int{{0}, {1, 2}, {3, 4}}
	for d, want := range wantLevels {
		got := p.TreeLevels[d]
		if len(got) != len(want) {
			t.Fatalf("level %d has %d steps, want %d", d, len(got), len(want))
		}
		for i, ts := range got {
			if ts.Node != want[i] {
				t.Errorf("level %d step %d = node %d, want %d", d, i, ts.Node, want[i])
			}
			if ts.Node > 0 && ts.Parent != []int{-1, 0, 0, 2, 2}[ts.Node] {
				t.Errorf("node %d parent %d wrong", ts.Node, ts.Parent)
			}
			if wantExp := ts.Node == 0 || ts.Node == 2; ts.Expands != wantExp {
				t.Errorf("node %d Expands = %v, want %v", ts.Node, ts.Expands, wantExp)
			}
		}
	}
}

func TestTrianglePlan(t *testing.T) {
	p := Triangle()
	if p.Mode != ModeEmbed || p.Nodes != 3 || len(p.Steps) != 3 {
		t.Fatalf("triangle plan: mode %v, %d nodes, %d steps", p.Mode, p.Nodes, len(p.Steps))
	}
	// Every step after the first intersects the rows of all prior steps and
	// ranks above the step before it.
	for s := 1; s < 3; s++ {
		if len(p.Steps[s].Connect) != s {
			t.Errorf("step %d Connect=%v, want all %d prior steps", s, p.Steps[s].Connect, s)
		}
		if !reflect.DeepEqual(p.Steps[s].After, []int{s - 1}) {
			t.Errorf("step %d After=%v, want [%d]", s, p.Steps[s].After, s-1)
		}
	}
}

func TestCountTriangleSmall(t *testing.T) {
	// Two triangles sharing edge 1-2, plus a pendant: {0,1,2}, {1,2,3}.
	g := buildGraph(t, 5, [][2]int64{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}}, nil)
	c := kernels.MustBuild(g)
	got, err := Count(c, Triangle())
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if got != 2 {
		t.Fatalf("triangles = %d, want 2", got)
	}
}

// TestCountAgainstOracle: the triangle plan counts what exhaustive
// backtracking counts, divided by the triangle's six automorphisms.
func TestCountAgainstOracle(t *testing.T) {
	graphs := []struct {
		name   string
		n      int
		edges  [][2]int64
		labels map[int64]int32
	}{
		{"two_triangles", 5, [][2]int64{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}}, nil},
		{"k5", 5, [][2]int64{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}, nil},
		{"cycle6", 6, [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}, nil},
		{"wheel", 7, [][2]int64{{6, 0}, {6, 1}, {6, 2}, {6, 3}, {6, 4}, {6, 5}, {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}, nil},
		{"labeled", 6, [][2]int64{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}},
			map[int64]int32{0: 7, 1: 9, 2: 9, 3: 7, 4: 9, 5: 9}},
	}
	// A skewed random graph: closing steps meet long fixed rows, short
	// probed ones and empty windows, which the hand-drawn graphs do not.
	rng := rand.New(rand.NewSource(12))
	var skewed [][2]int64
	for i := 0; i < 90; i++ {
		if u, w := rng.Int63n(22)*rng.Int63n(22)/22, rng.Int63n(22); u != w {
			skewed = append(skewed, [2]int64{u, w})
		}
	}
	graphs = append(graphs, struct {
		name   string
		n      int
		edges  [][2]int64
		labels map[int64]int32
	}{"skewed", 22, skewed, nil})
	for _, gc := range graphs {
		g := buildGraph(t, gc.n, gc.edges, gc.labels)
		got, err := Count(kernels.MustBuild(g), Triangle())
		if err != nil {
			t.Fatalf("%s: Count: %v", gc.name, err)
		}
		if want := bruteEmbeddings(g, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}}, 6); got != want {
			t.Errorf("%s: plan=%d oracle=%d", gc.name, got, want)
		}
	}
}

func TestHomCountMatchesBruteForce(t *testing.T) {
	// Brute-force tree homomorphism count in ID space.
	brute := func(g *graph.Graph, labels []int32, parent []int) int64 {
		ids := g.IDs()
		assigned := make([]graph.VertexID, len(labels))
		var total int64
		var rec func(i int)
		rec = func(i int) {
			if i == len(labels) {
				total++
				return
			}
			for _, v := range ids {
				if g.Vertex(v).Label != labels[i] {
					continue
				}
				if parent[i] >= 0 && !g.Vertex(v).HasNeighbor(assigned[parent[i]]) {
					continue
				}
				assigned[i] = v
				rec(i + 1)
			}
		}
		rec(0)
		return total
	}
	labels := []int32{0, 1, 2, 1, 3}
	parent := []int{-1, 0, 0, 2, 2}
	g := buildGraph(t, 8,
		[][2]int64{{0, 1}, {0, 2}, {2, 3}, {2, 4}, {0, 5}, {5, 6}, {5, 7}, {1, 3}},
		map[int64]int32{0: 0, 1: 1, 2: 2, 3: 1, 4: 3, 5: 2, 6: 1, 7: 3})
	p, err := Compile(labels, parent)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	c := kernels.MustBuild(g)
	got, err := HomCount(c, p)
	if err != nil {
		t.Fatalf("HomCount: %v", err)
	}
	if want := brute(g, labels, parent); got != want {
		t.Fatalf("HomCount=%d brute=%d", got, want)
	}
}

func TestModeMismatch(t *testing.T) {
	g := buildGraph(t, 3, [][2]int64{{0, 1}, {1, 2}, {2, 0}}, nil)
	c := kernels.MustBuild(g)
	tree, _ := Compile([]int32{0, 1}, []int{-1, 0})
	if _, err := Count(c, tree); err == nil {
		t.Errorf("Count accepted a hom plan")
	}
	if _, err := HomCount(c, Triangle()); err == nil {
		t.Errorf("HomCount accepted an embed plan")
	}
}

// TestSymmetryCondsLeaveIdentityOnly: of the 3! ways to match one triangle's
// vertices to the plan's steps, the order constraints admit exactly one.
func TestSymmetryCondsLeaveIdentityOnly(t *testing.T) {
	p := Triangle()
	kept := 0
	for _, ranks := range [][]uint32{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		ok := true
		for s, st := range p.Steps {
			if floor(&st, ranks) > ranks[s] {
				ok = false
			}
		}
		if ok {
			kept++
		}
	}
	if kept != 1 {
		t.Errorf("%d of 6 orders of one triangle satisfy the constraints, want exactly 1", kept)
	}
}
