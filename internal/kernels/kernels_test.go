package kernels

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gminer/internal/gen"
	"gminer/internal/graph"
)

// intersectOracle is the trivially correct map-based reference every
// kernel must agree with.
func intersectOracle(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	out := []uint32{}
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// kernelCases are the adversarial shapes the satellite task names: empty
// operands, disjoint ranges, fully nested, interleaved, singletons at the
// boundaries, and skewed sizes that cross the gallop threshold.
var kernelCases = []struct {
	name string
	a, b []uint32
}{
	{"both_empty", nil, nil},
	{"a_empty", nil, []uint32{1, 2, 3}},
	{"b_empty", []uint32{1, 2, 3}, nil},
	{"disjoint_low_high", []uint32{1, 2, 3}, []uint32{10, 11, 12}},
	{"disjoint_interleaved", []uint32{0, 2, 4, 6}, []uint32{1, 3, 5, 7}},
	{"equal", []uint32{2, 4, 8, 16}, []uint32{2, 4, 8, 16}},
	{"nested", []uint32{5, 6, 7}, []uint32{1, 3, 5, 6, 7, 9, 11}},
	{"single_hit_first", []uint32{0}, []uint32{0, 100, 200}},
	{"single_hit_last", []uint32{200}, []uint32{0, 100, 200}},
	{"single_miss", []uint32{150}, []uint32{0, 100, 200}},
	{"partial_overlap", []uint32{1, 4, 9, 16, 25}, []uint32{4, 5, 16, 17, 25}},
	{"skewed", []uint32{500, 5000}, seqU32(0, 10000, 1)},
	{"skewed_sparse_hits", []uint32{0, 9999}, seqU32(0, 10000, 1)},
	{"strided", seqU32(0, 1024, 3), seqU32(0, 1024, 7)},
}

func seqU32(from, to, step uint32) []uint32 {
	var out []uint32
	for x := from; x < to; x += step {
		out = append(out, x)
	}
	return out
}

func TestKernelAgreement(t *testing.T) {
	sc := NewScratch(16384)
	for _, tc := range kernelCases {
		want := intersectOracle(tc.a, tc.b)
		checks := []struct {
			name string
			got  []uint32
			n    int
		}{
			{"merge", intersectMerge(nil, tc.a, tc.b), CountMerge(tc.a, tc.b)},
			{"gallop", intersectGallop(nil, tc.a, tc.b), CountGallop(tc.a, tc.b)},
			{"auto", Intersect(nil, tc.a, tc.b), Count(tc.a, tc.b)},
		}
		for name, n := range map[string]int{"bitset": CountBitset(sc, tc.a, tc.b), "auto_scratch": CountScratch(sc, tc.a, tc.b)} {
			if n != len(want) {
				t.Errorf("%s/%s: count %d, want %d", tc.name, name, n, len(want))
			}
		}
		for _, ck := range checks {
			if ck.n != len(want) {
				t.Errorf("%s/%s: count %d, want %d", tc.name, ck.name, ck.n, len(want))
			}
			if len(ck.got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(ck.got, want)) {
				t.Errorf("%s/%s: intersection %v, want %v", tc.name, ck.name, ck.got, want)
			}
		}
	}
}

func TestCountAbove(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9, 11}
	b := []uint32{3, 5, 6, 9, 11, 13}
	for _, tc := range []struct {
		floor uint32
		want  int
	}{
		{0, 4}, {3, 3}, {5, 2}, {9, 1}, {11, 0}, {100, 0},
	} {
		if got := CountAbove(a, b, tc.floor); got != tc.want {
			t.Errorf("CountAbove(floor=%d) = %d, want %d", tc.floor, got, tc.want)
		}
	}
}

func TestCountGenericIDTypes(t *testing.T) {
	a := []graph.VertexID{1, 5, 9, 12}
	b := []graph.VertexID{5, 6, 12, 40}
	if got := Count(a, b); got != 2 {
		t.Fatalf("Count over VertexID = %d, want 2", got)
	}
	if got := Intersect(nil, a, b); !reflect.DeepEqual(got, []graph.VertexID{5, 12}) {
		t.Fatalf("Intersect over VertexID = %v", got)
	}
}

func TestChoose(t *testing.T) {
	for _, tc := range []struct {
		la, lb  int
		scratch bool
		want    Strategy
	}{
		{0, 100, false, StrategyMerge},
		{10, 10, false, StrategyMerge},
		{10, 10 * GallopRatio, false, StrategyGallop},
		{10 * GallopRatio, 10, false, StrategyGallop},
		{BitsetMinLen, BitsetMinLen + 1, false, StrategyMerge},
		{BitsetMinLen, BitsetMinLen + 1, true, StrategyBitset},
		{BitsetMinLen - 1, BitsetMinLen, true, StrategyMerge},
	} {
		if got := Choose(tc.la, tc.lb, tc.scratch); got != tc.want {
			t.Errorf("Choose(%d, %d, %v) = %v, want %v", tc.la, tc.lb, tc.scratch, got, tc.want)
		}
	}
}

func TestScratchReuse(t *testing.T) {
	sc := NewScratch(256)
	a, b := []uint32{1, 2, 3, 250}, []uint32{2, 250}
	for i := 0; i < 3; i++ {
		if n := CountBitset(sc, a, b); n != 2 {
			t.Fatalf("round %d: CountBitset = %d, want 2 (stale bits?)", i, n)
		}
	}
	// A different pair after Reset must not see leftover marks.
	if n := CountBitset(sc, []uint32{7}, []uint32{1, 2, 3}); n != 0 {
		t.Fatalf("CountBitset after reuse = %d, want 0", n)
	}
}

// scratchClean reports whether nothing is marked, loaded or pending reset.
func scratchClean(sc *Scratch) bool {
	for _, w := range sc.words {
		if w != 0 {
			return false
		}
	}
	return len(sc.dirty) == 0 && sc.loaded == nil
}

// A walk that holds one index row fixed against many — the triangle
// kernel's shape — must get the oracle's answer on every pair while the
// fixed row is marked once, from its second sighting on.
func TestCountScratchLoadsRepeatedIndexRow(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 11})
	csr := MustBuild(g)
	sc := csr.GetScratch()
	loads := 0
	for r := uint32(0); int(r) < csr.N(); r++ {
		row := csr.DagRow(r)
		for i, s := range row {
			other := csr.DagRow(s)
			if got, want := CountScratch(sc, row, other), len(intersectOracle(row, other)); got != want {
				t.Fatalf("row %d x row %d: %d, want %d", r, s, got, want)
			}
			if loaded := sameSlice(sc.loaded, row); loaded != (i >= 1) {
				t.Fatalf("row %d, call %d: loaded=%v", r, i, loaded)
			} else if loaded && i == 1 {
				loads++
			}
		}
	}
	if loads == 0 {
		t.Fatal("degenerate graph: no row was ever repeated")
	}
	// A one-off bitset kernel on a loaded scratch must not see the row.
	if sc.loaded == nil {
		t.Fatal("walk ended with nothing loaded")
	}
	if got := CountBitset(sc, []uint32{1, 2, 3}, []uint32{2, 3, 4}); got != 2 {
		t.Fatalf("bitset after load: %d, want 2", got)
	}
	if !scratchClean(sc) {
		t.Fatal("bitset kernel left the scratch dirty")
	}
	sc.Load(csr.Row(uint32(csr.N() - 1)))
	csr.PutScratch(sc)
	if !scratchClean(sc) {
		t.Fatal("PutScratch returned a loaded scratch to the pool")
	}
}

// The hazard the loaded-operand rule is restricted by: a caller's buffer
// that comes back at the same address and length with other contents is
// not "the operand already loaded" — only immutable index rows are.
func TestCountScratchNeverLoadsCallerBuffer(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 11})
	csr := MustBuild(g)
	sc := csr.GetScratch()
	defer csr.PutScratch(sc)
	hub := csr.Row(uint32(csr.N() - 1))
	buf := make([]uint32, 4)
	for round, fill := range [][]uint32{hub[:4], hub[:4], hub[len(hub)-4:], {0, 1, 2, 3}} {
		copy(buf, fill)
		if got, want := CountScratch(sc, buf, hub), len(intersectOracle(buf, hub)); got != want {
			t.Fatalf("round %d: %d, want %d", round, got, want)
		}
		if sc.loaded != nil {
			t.Fatalf("round %d: a caller-owned buffer was loaded", round)
		}
	}
	// Nor is a copy of a row, nor a 3-index slice whose capacity hides its
	// offset — identity is only ever claimed for plain index sub-slices.
	if sc.indexRow(append([]uint32(nil), hub...)) || sc.indexRow(hub[0:2:2]) {
		t.Fatal("indexRow accepted a slice it cannot place in the index")
	}
	if !sc.indexRow(hub) || !sc.indexRow(hub[1:3]) || sc.indexRow(hub[:0]) {
		t.Fatal("indexRow misjudged a plain index sub-slice")
	}
}

func TestGallopLowerBound(t *testing.T) {
	b := seqU32(0, 1000, 10) // 0, 10, ..., 990
	lo := 0
	for _, x := range []uint32{0, 5, 10, 995, 990} {
		got := gallop(b, 0, x)
		want := sort.Search(len(b), func(i int) bool { return b[i] >= x })
		if got != want {
			t.Errorf("gallop(%d) = %d, want %d", x, got, want)
		}
		// Also from a moving cursor, as the kernels use it.
		if g2 := gallop(b, lo, x); x >= b[lo] && g2 != want {
			t.Errorf("gallop(lo=%d, %d) = %d, want %d", lo, x, g2, want)
		}
	}
}

func TestCSRBuild(t *testing.T) {
	g := graph.New(8)
	// Star center 0 (deg 4) + a triangle {1,2,5} hanging off.
	for _, e := range [][2]graph.VertexID{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 5}, {2, 5}} {
		g.AddEdge(e[0], e[1])
	}
	g.Freeze()
	csr, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if csr.N() != 6 {
		t.Fatalf("N = %d, want 6", csr.N())
	}
	// Ranks ascend by (degree, ID): degrees 0:4 1:3 2:3 3:1 4:1 5:2.
	wantOrder := []graph.VertexID{3, 4, 5, 1, 2, 0}
	for r, id := range wantOrder {
		if got := csr.idOf(uint32(r)); got != id {
			t.Fatalf("rank %d = vertex %d, want %d", r, got, id)
		}
	}
	// Every row must be ascending and mirror the graph adjacency.
	for r := uint32(0); int(r) < csr.N(); r++ {
		row := csr.Row(r)
		v := g.Vertex(csr.idOf(r))
		if len(row) != len(v.Adj) {
			t.Fatalf("rank %d: row len %d, want %d", r, len(row), len(v.Adj))
		}
		for i, nb := range row {
			if i > 0 && row[i-1] >= nb {
				t.Fatalf("rank %d: row not ascending", r)
			}
			if !v.HasNeighbor(csr.idOf(nb)) {
				t.Fatalf("rank %d: row entry %d not a graph neighbor", r, nb)
			}
		}
		// DagRow is exactly the suffix above r.
		dag := csr.DagRow(r)
		if want := above(row, r); !reflect.DeepEqual(append([]uint32{}, dag...), append([]uint32{}, want...)) {
			t.Fatalf("rank %d: DagRow %v, want %v", r, dag, want)
		}
	}
	// Sum of DAG out-degrees is |E|: every edge oriented exactly once.
	var dagEdges int64
	for r := uint32(0); int(r) < csr.N(); r++ {
		dagEdges += int64(len(csr.DagRow(r)))
	}
	if dagEdges != g.NumEdges() {
		t.Fatalf("DAG edges %d, want |E| = %d", dagEdges, g.NumEdges())
	}
}

func TestCSRDeterministic(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 600, Seed: 7})
	a := MustBuild(g)
	b := MustBuild(g)
	if !reflect.DeepEqual(a.ids, b.ids) || !reflect.DeepEqual(a.edges, b.edges) ||
		!reflect.DeepEqual(a.offsets, b.offsets) || !reflect.DeepEqual(a.dag, b.dag) {
		t.Fatal("two CSR builds of the same graph differ")
	}
}

// The engine's oriented view (graph.Orient) and the index's DAG rows are
// two derivations of one order: a vertex's forward list must be exactly
// the IDs of its DagRow, ascending.
func TestOrientMatchesCSRDag(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 6, Edges: 300, Seed: 3})
	csr := MustBuild(g)
	gplus := graph.Orient(g)
	g.ForEach(func(v *graph.Vertex) bool {
		r, _ := csr.rankOf(v.ID)
		var want []graph.VertexID
		for _, nb := range csr.DagRow(r) {
			want = append(want, csr.idOf(nb))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := gplus.Vertex(v.ID).Adj; len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d: forward list %v, DAG row IDs %v", v.ID, got, want)
		}
		return true
	})
}

// TestRandomAgreement drives all strategies against the oracle on random
// sorted sets of varied sizes and densities — the deterministic cousin of
// FuzzIntersectKernels.
func TestRandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := NewScratch(1 << 16)
	for trial := 0; trial < 200; trial++ {
		a := randomSet(rng, rng.Intn(200), 1<<16)
		b := randomSet(rng, rng.Intn(2000), 1<<16)
		want := intersectOracle(a, b)
		if got := Intersect(nil, a, b); !reflect.DeepEqual(pad(got), pad(want)) {
			t.Fatalf("trial %d: auto %v vs oracle %v", trial, got, want)
		}
		if n := CountBitset(sc, a, b); n != len(want) {
			t.Fatalf("trial %d: bitset count %d, want %d", trial, n, len(want))
		}
		if n := CountGallop(a, b); n != len(want) {
			t.Fatalf("trial %d: gallop count %d, want %d", trial, n, len(want))
		}
	}
}

func randomSet(rng *rand.Rand, n, universe int) []uint32 {
	seen := map[uint32]bool{}
	for len(seen) < n {
		seen[uint32(rng.Intn(universe))] = true
	}
	out := make([]uint32, 0, n)
	for x := range seen {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func pad(s []uint32) []uint32 {
	if s == nil {
		return []uint32{}
	}
	return s
}

// countMergeBranchFree is the real-row benchmark's other arm: a merge whose
// cursors advance by comparison results instead of a three-way branch.
func countMergeBranchFree[T ID](a, b []T) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		va, vb := a[i], b[j]
		if va == vb {
			n++
		}
		if va <= vb {
			i++
		}
		if vb <= va {
			j++
		}
	}
	return n
}

// BenchmarkCountRealRows times the merge bodies and the adaptive entry
// point over operand pairs as the apps produce them on a seeded power-law
// graph, instead of over synthetic sets: tc is every DAG edge's pair of
// forward rows (rank space, uint32); gm is Listing 2's Adj ∩ parents — a
// candidate's full adjacency against the one-in-seven "label class" of its
// parent's adjacency (ID space, int64). The constants in kernels.go and
// the choice of merge body are read off this benchmark.
func BenchmarkCountRealRows(b *testing.B) {
	g := gen.RMAT(gen.RMATConfig{Scale: 14, Edges: 250_000, Seed: 42})
	csr := MustBuild(g)
	type pair32 struct{ a, b []uint32 }
	var tc []pair32
	for r := uint32(0); int(r) < csr.N(); r++ {
		for _, s := range csr.DagRow(r) {
			tc = append(tc, pair32{csr.DagRow(r), csr.DagRow(s)})
		}
	}
	type pair64 struct{ a, b []graph.VertexID }
	var gm []pair64
	g.ForEach(func(v *graph.Vertex) bool {
		var parents []graph.VertexID
		for _, u := range v.Adj {
			if u%7 == 3 {
				parents = append(parents, u)
			}
		}
		for _, u := range v.Adj {
			if len(parents) > 0 && len(gm) < 1<<20 {
				gm = append(gm, pair64{g.Vertex(u).Adj, parents})
			}
		}
		return true
	})
	var sink int
	for _, arm := range []struct {
		name string
		tc   func(a, b []uint32) int
		gm   func(a, b []graph.VertexID) int
	}{
		{"branchy", CountMerge[uint32], CountMerge[graph.VertexID]},
		{"branchfree", countMergeBranchFree[uint32], countMergeBranchFree[graph.VertexID]},
		{"auto", Count[uint32], Count[graph.VertexID]},
	} {
		b.Run("tc/"+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range tc {
					sink += arm.tc(p.a, p.b)
				}
			}
		})
		b.Run("gm/"+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range gm {
					sink += arm.gm(p.a, p.b)
				}
			}
		})
	}
	_ = sink
}

// BenchmarkFrontierUnionRealRows times Union's two arms, the rule that
// picks between them, and the map + sort.Slice frontier they replaced, on
// the frontiers candidate-major GM (the Generic baseline) builds: for every
// root-labelled vertex of the benchmark's graph (RMAT scale 14, 7 labels
// dealt down the degree ranking), the adjacency lists of its 'c'-labelled
// neighbours — Figure 1's one expanding level-1 node. stride=64 spreads the
// same rows over a 64x wider ID span, which puts the typical task at the
// rule's boundary (one bitmap word per input element): the bitmap arm still
// wins there, so the rule errs towards sorting, and past it the bitmap
// outgrows its input.
func BenchmarkFrontierUnionRealRows(b *testing.B) {
	g := gen.RMAT(gen.RMATConfig{Scale: 14, Edges: 250_000, Seed: 42})
	gen.DealLabels(g, 7)
	type rowSet = [][]graph.VertexID
	arms := []struct {
		name string
		f    func(dst []graph.VertexID, rows rowSet) []graph.VertexID
	}{
		{"bitmap", func(dst []graph.VertexID, rows rowSet) []graph.VertexID {
			lo, hi := rows[0][0], rows[0][0]
			for _, r := range rows {
				lo, hi = min(lo, r[0]), max(hi, r[len(r)-1])
			}
			return unionBitmap(dst, rows, lo, int(uint64(hi-lo)/64)+1)
		}},
		{"sort", unionSort[graph.VertexID]},
		{"auto", Union[graph.VertexID]},
		{"map", func(dst []graph.VertexID, rows rowSet) []graph.VertexID {
			next := make(map[graph.VertexID]struct{})
			for _, r := range rows {
				for _, x := range r {
					next[x] = struct{}{}
				}
			}
			for x := range next {
				dst = append(dst, x)
			}
			sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
			return dst
		}},
	}
	var buf []graph.VertexID
	for _, stride := range []graph.VertexID{1, 64} {
		var tasks []rowSet
		g.ForEach(func(v *graph.Vertex) bool {
			var rows rowSet
			for _, u := range v.Adj {
				if w := g.Vertex(u); v.Label == 0 && w.Label == 2 {
					row := make([]graph.VertexID, len(w.Adj))
					for i, x := range w.Adj {
						row[i] = x * stride
					}
					rows = append(rows, row)
				}
			}
			if len(rows) > 0 {
				tasks = append(tasks, rows)
			}
			return true
		})
		for _, arm := range arms {
			b.Run(fmt.Sprintf("stride=%d/%s", stride, arm.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, rows := range tasks {
						buf = arm.f(buf[:0], rows)
					}
				}
			})
		}
	}
}
