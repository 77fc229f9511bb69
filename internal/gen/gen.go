// Package gen generates the synthetic datasets used by the evaluation.
//
// The paper evaluates on six real-world graphs (Table 2): Skitter, Orkut,
// BTC, Friendster (non-attributed) and Tencent, DBLP (attributed). Those
// inputs are not available here, so gen provides deterministic synthetic
// generators whose outputs preserve the properties the evaluation depends
// on: heavy-tailed degree distributions (power-law / RMAT-style), community
// structure (planted partition), label assignment with a uniform alphabet
// (the paper assigns labels {a..g} uniformly for GM), and 5-dimensional
// attribute vectors drawn uniformly from [1,10] (the paper's footnote 7).
package gen

import (
	"math/rand"
	"sort"

	"gminer/internal/graph"
)

// ErdosRenyi returns G(n, m): n vertices, m random undirected edges.
func ErdosRenyi(n int, m int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.VertexID(i))
	}
	for e := int64(0); e < m; e++ {
		u := graph.VertexID(rng.Intn(n))
		w := graph.VertexID(rng.Intn(n))
		if u != w {
			g.AddEdge(u, w)
		}
	}
	g.Freeze()
	return g
}

// RMATConfig controls the RMAT recursive-matrix generator, the standard
// way to synthesize power-law graphs resembling social networks.
type RMATConfig struct {
	Scale int     // number of vertices = 2^Scale
	Edges int64   // number of (pre-dedup) undirected edges
	A     float64 // RMAT quadrant probabilities; defaults 0.57/0.19/0.19/0.05
	B     float64
	C     float64
	Seed  int64
}

func (c *RMATConfig) defaults() {
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = 0.57, 0.19, 0.19
	}
}

// RMAT generates a power-law graph. Vertices are labeled 0..2^Scale-1;
// isolated vertices are kept so |V| is exact.
func RMAT(cfg RMATConfig) *graph.Graph {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 1 << cfg.Scale
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.VertexID(i))
	}
	for e := int64(0); e < cfg.Edges; e++ {
		u, w := rmatEdge(rng, cfg)
		if u != w {
			g.AddEdge(u, w)
		}
	}
	g.Freeze()
	return g
}

func rmatEdge(rng *rand.Rand, cfg RMATConfig) (graph.VertexID, graph.VertexID) {
	var u, w int
	for bit := cfg.Scale - 1; bit >= 0; bit-- {
		r := rng.Float64()
		switch {
		case r < cfg.A:
			// top-left: no bits set
		case r < cfg.A+cfg.B:
			w |= 1 << bit
		case r < cfg.A+cfg.B+cfg.C:
			u |= 1 << bit
		default:
			u |= 1 << bit
			w |= 1 << bit
		}
	}
	return graph.VertexID(u), graph.VertexID(w)
}

// CommunityConfig controls the planted-partition generator used for the
// attributed-graph applications (CD, GC): k communities of size within
// [MinSize, MaxSize], intra-community edge probability PIn, plus Bridge
// random inter-community edges. Vertices of the same community share a
// dominant attribute pattern so that attribute-based filters align with
// the topology, as in real attributed communities.
type CommunityConfig struct {
	Communities int
	MinSize     int
	MaxSize     int
	PIn         float64
	Bridges     int64
	AttrDim     int   // attributes per vertex (paper footnote 7 uses 5)
	AttrRange   int32 // attribute values drawn from [1, AttrRange]
	Seed        int64
}

// Community generates a planted-partition attributed graph and returns the
// graph plus the ground-truth community assignment (vertex → community).
func Community(cfg CommunityConfig) (*graph.Graph, map[graph.VertexID]int) {
	if cfg.AttrDim == 0 {
		cfg.AttrDim = 5
	}
	if cfg.AttrRange == 0 {
		cfg.AttrRange = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New(cfg.Communities * cfg.MaxSize)
	truth := make(map[graph.VertexID]int)

	var next graph.VertexID
	members := make([][]graph.VertexID, cfg.Communities)
	// Each community has a "home" attribute vector; members copy it with a
	// little per-vertex noise in one dimension, so intra-community attribute
	// similarity is high and inter-community similarity is low.
	for c := 0; c < cfg.Communities; c++ {
		size := cfg.MinSize
		if cfg.MaxSize > cfg.MinSize {
			size += rng.Intn(cfg.MaxSize - cfg.MinSize + 1)
		}
		home := make([]int32, cfg.AttrDim)
		for d := range home {
			home[d] = 1 + rng.Int31n(cfg.AttrRange)
		}
		for i := 0; i < size; i++ {
			id := next
			next++
			v := g.AddVertex(id)
			attrs := append([]int32(nil), home...)
			if rng.Float64() < 0.5 {
				d := rng.Intn(cfg.AttrDim)
				attrs[d] = 1 + rng.Int31n(cfg.AttrRange)
			}
			v.Attrs = attrs
			truth[id] = c
			members[c] = append(members[c], id)
		}
		// Intra-community edges.
		m := members[c]
		for i := 0; i < len(m); i++ {
			for j := i + 1; j < len(m); j++ {
				if rng.Float64() < cfg.PIn {
					g.AddEdge(m[i], m[j])
				}
			}
		}
	}
	// Inter-community bridges.
	for b := int64(0); b < cfg.Bridges; b++ {
		c1 := rng.Intn(cfg.Communities)
		c2 := rng.Intn(cfg.Communities)
		if c1 == c2 || len(members[c1]) == 0 || len(members[c2]) == 0 {
			continue
		}
		u := members[c1][rng.Intn(len(members[c1]))]
		w := members[c2][rng.Intn(len(members[c2]))]
		g.AddEdge(u, w)
	}
	g.Freeze()
	return g, truth
}

// AssignLabels assigns each vertex a label drawn uniformly from
// [0, alphabet), as the paper does for GM ("randomly assigned a label from
// {a,b,c,d,e,f,g} ... with a uniform distribution").
func AssignLabels(g *graph.Graph, alphabet int32, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g.ForEach(func(v *graph.Vertex) bool {
		v.Label = rng.Int31n(alphabet)
		return true
	})
}

// DealLabels assigns [0, alphabet) round-robin down the (degree
// descending, ID ascending) ranking instead of drawing labels: every label
// gets the same degree profile, so a match count does not swing with which
// label the few hubs of a power-law graph happened to draw. It mirrors
// dealLabels in benchmark/inputs.go (a separate module that cannot export
// it), so tests, micro-benchmarks and `gengraph -deal-labels` here produce
// the benchmark's GM input; algo.TestGMBenchGraphIsTheBenchmarks holds the
// two together.
func DealLabels(g *graph.Graph, alphabet int32) {
	ids := g.IDs()
	sort.Slice(ids, func(i, j int) bool {
		di, dj := len(g.Vertex(ids[i]).Adj), len(g.Vertex(ids[j]).Adj)
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	for rank, id := range ids {
		g.Vertex(id).Label = int32(rank) % alphabet
	}
}

// AssignAttrs assigns each vertex a dim-dimensional attribute vector with
// values drawn uniformly from [1, rangeMax], matching the paper's
// footnote 7 ("5-dimension uniform distribution from [1-10]").
func AssignAttrs(g *graph.Graph, dim int, rangeMax int32, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g.ForEach(func(v *graph.Vertex) bool {
		attrs := make([]int32, dim)
		for d := range attrs {
			attrs[d] = 1 + rng.Int31n(rangeMax)
		}
		v.Attrs = attrs
		return true
	})
}
