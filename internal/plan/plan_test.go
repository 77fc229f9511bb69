package plan

import (
	"math/rand"
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
func bruteEmbeddings(g *graph.Graph, n int, edges [][2]int, labels []int32, aut int) int64 {
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
			if labels != nil && labels[i] != graph.NoLabel && g.Vertex(v).Label != labels[i] {
				continue
			}
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
	if p.Aut != 6 {
		t.Fatalf("triangle Aut = %d, want 6", p.Aut)
	}
	// Symmetry breaking over K3 must totally order the three steps:
	// steps 1 and 2 together carry 3 order constraints' worth of pruning —
	// concretely every step after the first is constrained below/above all
	// prior steps.
	for s := 1; s < 3; s++ {
		if len(p.Steps[s].Connect) != s {
			t.Errorf("step %d Connect=%v, want all %d prior steps", s, p.Steps[s].Connect, s)
		}
		if len(p.Steps[s].After)+len(p.Steps[s].Before) == 0 {
			t.Errorf("step %d has no order constraint; duplicates would be generated", s)
		}
		if len(p.Steps[s].Distinct) != 0 {
			t.Errorf("step %d Distinct=%v, want none (fully connected)", s, p.Steps[s].Distinct)
		}
	}
}

func TestCliquePlan(t *testing.T) {
	for k, wantAut := range map[int]int{2: 2, 3: 6, 4: 24, 5: 120} {
		p, err := Clique(k)
		if err != nil {
			t.Fatalf("Clique(%d): %v", k, err)
		}
		if p.Aut != wantAut {
			t.Errorf("Clique(%d).Aut = %d, want %d", k, p.Aut, wantAut)
		}
	}
}

func TestCompileGraphValidation(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		edges  [][2]int
		labels []int32
	}{
		{"zero_nodes", 0, nil, nil},
		{"oversize", MaxEmbedNodes + 1, [][2]int{{0, 1}}, nil},
		{"self_loop", 2, [][2]int{{0, 0}, {0, 1}}, nil},
		{"edge_out_of_range", 2, [][2]int{{0, 2}}, nil},
		{"edge_negative", 2, [][2]int{{-1, 0}}, nil},
		{"disconnected", 4, [][2]int{{0, 1}, {2, 3}}, nil},
		{"isolated_node", 3, [][2]int{{0, 1}}, nil},
		{"label_mismatch", 2, [][2]int{{0, 1}}, []int32{1}},
	}
	for _, c := range cases {
		if _, err := CompileGraph(c.n, c.edges, c.labels); err == nil {
			t.Errorf("%s: CompileGraph accepted invalid pattern", c.name)
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
	// Per-seed decomposition must cover the same total exactly once.
	var sum int64
	for r := uint32(0); r < uint32(c.N()); r++ {
		n, err := CountFrom(c, Triangle(), r)
		if err != nil {
			t.Fatalf("CountFrom(%d): %v", r, err)
		}
		sum += n
	}
	if sum != got {
		t.Fatalf("per-seed sum %d != whole-graph count %d", sum, got)
	}
}

func TestCountAgainstOracle(t *testing.T) {
	patterns := []struct {
		name   string
		n      int
		edges  [][2]int
		labels []int32
	}{
		{"edge", 2, [][2]int{{0, 1}}, nil},
		{"triangle", 3, [][2]int{{0, 1}, {0, 2}, {1, 2}}, nil},
		{"path3", 3, [][2]int{{0, 1}, {1, 2}}, nil},
		{"square", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil},
		{"k4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, nil},
		{"diamond", 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}, nil},
		{"tailed_triangle", 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}}, nil},
		{"star3", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}}, nil},
		{"labeled_edge", 2, [][2]int{{0, 1}}, []int32{7, 9}},
		{"labeled_triangle", 3, [][2]int{{0, 1}, {0, 2}, {1, 2}}, []int32{7, 9, 9}},
	}
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
	for _, pc := range patterns {
		p, err := CompileGraph(pc.n, pc.edges, pc.labels)
		if err != nil {
			t.Fatalf("%s: CompileGraph: %v", pc.name, err)
		}
		for _, gc := range graphs {
			g := buildGraph(t, gc.n, gc.edges, gc.labels)
			c := kernels.MustBuild(g)
			got, err := Count(c, p)
			if err != nil {
				t.Fatalf("%s/%s: Count: %v", pc.name, gc.name, err)
			}
			want := bruteEmbeddings(g, pc.n, pc.edges, pc.labels, p.Aut)
			if got != want {
				t.Errorf("%s on %s: plan=%d oracle=%d", pc.name, gc.name, got, want)
			}
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
	if _, err := CountFrom(c, tree, 0); err == nil {
		t.Errorf("CountFrom accepted a hom plan")
	}
	if _, err := CountFrom(c, Triangle(), 99); err == nil {
		t.Errorf("CountFrom accepted an out-of-range rank")
	}
}

func TestSymmetryCondsLeaveIdentityOnly(t *testing.T) {
	// For each pattern: applying the derived conds as a filter over all
	// automorphism images of a canonical tuple must keep exactly one.
	for _, pc := range []struct {
		n     int
		edges [][2]int
	}{
		{3, [][2]int{{0, 1}, {0, 2}, {1, 2}}},
		{4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
		{4, [][2]int{{0, 1}, {0, 2}, {0, 3}}},
		{5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}},
	} {
		adj := make([][]bool, pc.n)
		deg := make([]int, pc.n)
		for i := range adj {
			adj[i] = make([]bool, pc.n)
		}
		for _, e := range pc.edges {
			adj[e[0]][e[1]], adj[e[1]][e[0]] = true, true
			deg[e[0]]++
			deg[e[1]]++
		}
		labels := make([]int32, pc.n)
		for i := range labels {
			labels[i] = graph.NoLabel
		}
		auts := automorphisms(pc.n, adj, labels, deg)
		conds := symmetryConds(pc.n, auts)
		// Assign distinct values 0..n-1 to pattern nodes; each automorphism
		// permutes them. Exactly one permuted assignment may satisfy all
		// conds.
		kept := 0
		for _, sigma := range auts {
			ok := true
			// assignment: node i holds value pos(i) where sigma maps the
			// canonical tuple; value at node sigma[i] is i.
			val := make([]int, pc.n)
			for i, s := range sigma {
				val[s] = i
			}
			for _, cnd := range conds {
				if !(val[cnd[0]] < val[cnd[1]]) {
					ok = false
					break
				}
			}
			if ok {
				kept++
			}
		}
		if kept != 1 {
			t.Errorf("pattern n=%d edges=%v: %d of %d automorphic images satisfy conds, want exactly 1",
				pc.n, pc.edges, kept, len(auts))
		}
	}
}
