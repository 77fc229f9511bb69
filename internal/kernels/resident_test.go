package kernels

import (
	"math/bits"
	"testing"

	"gminer/internal/gen"
	"gminer/internal/graph"
)

// forcedCore cuts gplus's core whatever the offer rule says (nil only when
// the IDs are sparse), beside what NewResidentCore offers.
func forcedCore(gplus *graph.Graph, budget int64) (forced, offered *ResidentCore) {
	ids, refs := graph.HotLists(gplus, budget)
	base, span, ok := gplus.DenseIDs()
	if !ok {
		return nil, NewResidentCore(gplus, ids, refs)
	}
	lists := make([]hotList, len(ids))
	for i, id := range ids {
		v := gplus.Vertex(id)
		lists[i] = hotList{v, refs[i] + int64(len(v.Adj)), refs[i]}
	}
	forced, _ = cutCore(base, span, lists)
	return forced, NewResidentCore(gplus, ids, refs)
}

// checkCore holds core c of gplus to its contract: for every forward list
// Γ⁺(v), marked as a task marks its candidates, every member u whose list is
// a bit row counts |Γ⁺(u) ∩ Γ⁺(v)| — the merge's answer — and no other member
// claims a row; no row weighs more than its list; the ID bitmap holds what
// the plain MarkAll would set; the marks hold the resident members alone.
func checkCore(t *testing.T, gplus *graph.Graph, c *ResidentCore) {
	t.Helper()
	base, span, _ := gplus.DenseIDs()
	sc, plain, marks := NewScratch(span), NewScratch(span), make([]uint64, c.Words())
	rows := 0
	gplus.ForEach(func(u *graph.Vertex) bool {
		if i, ok := c.resident(u.ID); ok && c.rows[i].n > 0 {
			rows++
			if r := c.rows[i]; r.n+r.tn > int32(len(u.Adj)) {
				t.Fatalf("vertex %d: a row of %d words and a %d-ID tail mirrors a %d-ID list", u.ID, r.n, r.tn, len(u.Adj))
			}
		}
		return true
	})
	if rows != c.Rows() {
		t.Fatalf("%d rows found, the core says %d", rows, c.Rows())
	}
	gplus.ForEach(func(v *graph.Vertex) bool {
		c.MarkAll(sc, marks, v.Adj)
		MarkAll(plain, v.Adj, base)
		resident := 0
		for _, u := range v.Adj {
			if _, ok := c.resident(u); ok {
				resident++
			}
			if x := uint64(u - base); x < uint64(span) && sc.Has(uint32(x)) != plain.Has(uint32(x)) {
				t.Fatalf("list of %d: ID %d marked %v, the plain bitmap says %v", v.ID, u, sc.Has(uint32(x)), plain.Has(uint32(x)))
			}
			n, row := c.Count(sc, marks, u)
			i, ok := c.resident(u)
			if row != (ok && c.rows[i].n > 0) {
				t.Fatalf("list of %d: member %d answers row=%v", v.ID, u, row)
			}
			if want := CountMerge(gplus.Vertex(u).Adj, v.Adj); row && n != want {
				t.Fatalf("list of %d: row of %d counts %d, merge %d", v.ID, u, n, want)
			}
		}
		set := 0
		for _, w := range marks {
			set += bits.OnesCount64(w)
		}
		if set != resident {
			t.Fatalf("list of %d: %d marks for %d resident members", v.ID, set, resident)
		}
		sc.Reset()
		plain.Reset()
		clear(marks)
		return true
	})
}

// relabel copies g with every ID scaled and offset: an ID span far wider than
// 64·|V|, so graph.DenseIDs declines.
func relabel(g *graph.Graph) *graph.Graph {
	out := graph.New(g.NumVertices())
	g.ForEach(func(v *graph.Vertex) bool {
		out.AddVertex(v.ID*1009 + 5_000_000_007)
		for _, u := range v.Adj {
			out.AddEdge(v.ID*1009+5_000_000_007, u*1009+5_000_000_007)
		}
		return true
	})
	out.Freeze()
	return out
}

func buildGraph(edges func(add func(u, w graph.VertexID))) *graph.Graph {
	g := graph.New(0)
	edges(g.AddEdge)
	g.Freeze()
	return g
}

// The core counts what the merge counts for every resident list and every
// list that references it, on skewed, flat and degenerate graphs; the offer
// rule takes it on RMAT and declines it on the community graph the
// benchmark's dyn-standing-mix workload runs on (seed 42); sparse IDs get
// none.
func TestResidentCoreCounts(t *testing.T) {
	standing, _ := gen.Community(gen.CommunityConfig{Communities: 1024, MinSize: 8, MaxSize: 16, PIn: 0.7, Bridges: 10_240, Seed: 42})
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		budget  int64 // per vertex
		offered bool
	}{
		{"rmat-seed3", gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12_000, Seed: 3}), graph.ResidentBudgetPerVertex, true},
		{"rmat-seed42", gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 30_000, Seed: 42}), graph.ResidentBudgetPerVertex, true},
		{"rmat-all-resident", gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 5_000, Seed: 7}), 1 << 20, true},
		{"community", standing, graph.ResidentBudgetPerVertex, false},
		{"star", buildGraph(func(add func(u, w graph.VertexID)) {
			for i := graph.VertexID(1); i <= 50; i++ {
				add(0, i)
			}
		}), graph.ResidentBudgetPerVertex, false},
		{"clique", buildGraph(func(add func(u, w graph.VertexID)) {
			for i := graph.VertexID(0); i < 24; i++ {
				for j := i + 1; j < 24; j++ {
					add(i, j)
				}
			}
		}), 1 << 20, true},
		{"empty-resident-set", gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 5_000, Seed: 7}), 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gplus := graph.Orient(tc.g)
			forced, offered := forcedCore(gplus, tc.budget*int64(tc.g.NumVertices()))
			checkCore(t, gplus, forced)
			if (offered != nil) != tc.offered {
				t.Fatalf("core offered = %v (%d of %d resident lists are rows)", offered != nil, forced.Rows(), len(forced.rows))
			}
			if offered != nil && (offered.Fingerprint() != forced.Fingerprint() || offered.Rows() == 0) {
				t.Fatalf("the offered core (%d rows) is not the one cut (%d rows)", offered.Rows(), forced.Rows())
			}
			if again, _ := forcedCore(graph.Orient(tc.g), tc.budget*int64(tc.g.NumVertices())); again.Fingerprint() != forced.Fingerprint() {
				t.Fatal("two cuts of the same view differ")
			}
			sparse := relabel(tc.g)
			if none, offered := forcedCore(graph.Orient(sparse), tc.budget*int64(tc.g.NumVertices())); none != nil || offered != nil {
				t.Fatal("a core over sparse IDs")
			}
		})
	}
}

// FuzzCoreCount cross-checks the core's count against a map oracle on graphs
// the fuzzer draws: byte pairs are edges over up to 256 IDs, and the first
// byte sets the resident budget — up to every referenced list, so rows span
// several words.
func FuzzCoreCount(f *testing.F) {
	f.Add([]byte{255, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{8, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	wide := []byte{255}
	for i := 0; i < 120; i++ {
		wide = append(wide, byte(i%7), byte(i*37))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		g := buildGraph(func(add func(u, w graph.VertexID)) {
			for i := 1; i+1 < len(raw); i += 2 {
				add(graph.VertexID(raw[i]), graph.VertexID(raw[i+1]))
			}
		})
		budget := int64(raw[0]) * 64
		if raw[0] == 255 {
			budget = 1 << 40
		}
		gplus := graph.Orient(g)
		c, offered := forcedCore(gplus, budget)
		if c == nil {
			return // sparse: a handful of IDs far apart
		}
		if offered != nil && offered.Fingerprint() != c.Fingerprint() {
			t.Fatal("the offered core is not the one cut")
		}
		base, span, _ := gplus.DenseIDs()
		sc, marks := NewScratch(span), make([]uint64, c.Words())
		gplus.ForEach(func(v *graph.Vertex) bool {
			in := map[graph.VertexID]bool{}
			for _, x := range v.Adj {
				in[x] = true
			}
			c.MarkAll(sc, marks, v.Adj)
			for _, u := range v.Adj {
				want := 0
				for _, x := range gplus.Vertex(u).Adj {
					if in[x] {
						want++
					}
				}
				if n, row := c.Count(sc, marks, u); row && n != want {
					t.Fatalf("list of %d: row of %d counts %d, oracle %d (base %d)", v.ID, u, n, want, base)
				}
			}
			sc.Reset()
			clear(marks)
			return true
		})
	})
}
