package kernels

import (
	"fmt"
	"sort"
	"sync"

	"gminer/internal/graph"
)

// CSR is the packed, degree-ranked adjacency index compiled plans run on.
// It is built once per resident graph (at Session prepare, or lazily at
// job start) and shared read-only by every job and executor thread:
//
//   - vertices are re-ranked by (degree ascending, ID ascending); rank
//     space is dense [0, n), which is what lets the bitset strategy and
//     the plan executor's per-level arrays work without hash lookups;
//   - each row is the neighbor ranks sorted ascending, packed into one
//     edges array (CSR layout: offsets[r] .. offsets[r+1]);
//   - dagStart[r] marks where the row's higher-ranked suffix begins: the
//     out-neighborhood of the degree-oriented DAG (G2Miner's orientation,
//     u→v iff (deg(u), id(u)) < (deg(v), id(v))), which bounds expansion
//     work at every triangle/clique core by the arboricity instead of the
//     max degree.
//
// The ranking changes only *where* exploration starts, never *what* it
// finds: every count produced through a CSR equals the count produced in
// ID space (the differential suite in internal/plan pins this).
type CSR struct {
	n       int
	ids     []graph.VertexID          // rank → vertex ID
	labels  []int32                   // rank → label (graph.NoLabel if none)
	rank    map[graph.VertexID]uint32 // vertex ID → rank
	offsets []int64                   // len n+1
	edges   []uint32                  // neighbor ranks, ascending per row
	dag     []int64                   // absolute edge index of the first higher-ranked neighbor

	scratch sync.Pool
}

// Build compiles the CSR index from a frozen graph. It is a pure function
// of the graph: two builds from equal graphs produce identical indexes.
func Build(g *graph.Graph) (*CSR, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("kernels: CSR requires a frozen graph")
	}
	n := g.NumVertices()
	if int64(n) > int64(^uint32(0)) {
		return nil, fmt.Errorf("kernels: graph too large for 32-bit ranks (%d vertices)", n)
	}
	c := &CSR{
		n:      n,
		ids:    make([]graph.VertexID, n),
		labels: make([]int32, n),
		rank:   make(map[graph.VertexID]uint32, n),
	}
	type vd struct {
		id  graph.VertexID
		deg int32
	}
	order := make([]vd, 0, n)
	g.ForEach(func(v *graph.Vertex) bool {
		order = append(order, vd{v.ID, int32(len(v.Adj))})
		return true
	})
	sort.Slice(order, func(i, j int) bool {
		if order[i].deg != order[j].deg {
			return order[i].deg < order[j].deg
		}
		return order[i].id < order[j].id
	})
	var edgeTotal int64
	for r, o := range order {
		c.ids[r] = o.id
		c.rank[o.id] = uint32(r)
		edgeTotal += int64(o.deg)
	}
	c.offsets = make([]int64, n+1)
	c.edges = make([]uint32, 0, edgeTotal)
	c.dag = make([]int64, n)
	row := make([]uint32, 0, 64)
	for r := 0; r < n; r++ {
		v := g.Vertex(c.ids[r])
		c.labels[r] = v.Label
		row = row[:0]
		for _, nb := range v.Adj {
			row = append(row, c.rank[nb])
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		c.offsets[r] = int64(len(c.edges))
		c.edges = append(c.edges, row...)
		c.dag[r] = c.offsets[r] + int64(SearchSorted(row, uint32(r)+1))
	}
	c.offsets[n] = int64(len(c.edges))
	c.scratch.New = func() any {
		sc := NewScratch(n)
		sc.index = c.edges
		return sc
	}
	return c, nil
}

// MustBuild is Build for graphs known frozen; it panics on error.
func MustBuild(g *graph.Graph) *CSR {
	c, err := Build(g)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the number of vertices (the rank universe size).
func (c *CSR) N() int { return c.n }

// NumEdges returns the number of directed adjacency entries (2|E|).
func (c *CSR) NumEdges() int64 { return int64(len(c.edges)) }

// Row returns the full neighbor ranks of rank r, ascending.
func (c *CSR) Row(r uint32) []uint32 {
	return c.edges[c.offsets[r]:c.offsets[r+1]]
}

// DagRow returns the higher-ranked suffix of Row(r): the out-neighbors of
// r in the degree-oriented DAG.
func (c *CSR) DagRow(r uint32) []uint32 {
	return c.edges[c.dag[r]:c.offsets[r+1]]
}

// Degree returns |Γ(r)|.
func (c *CSR) Degree(r uint32) int {
	return int(c.offsets[r+1] - c.offsets[r])
}

// Label returns the label of rank r.
func (c *CSR) Label(r uint32) int32 { return c.labels[r] }

// IDOf maps a rank back to its vertex ID.
func (c *CSR) IDOf(r uint32) graph.VertexID { return c.ids[r] }

// Rank maps a vertex ID to its rank.
func (c *CSR) Rank(id graph.VertexID) (uint32, bool) {
	r, ok := c.rank[id]
	return r, ok
}

// GetScratch borrows a scratch bitmap sized to the rank universe; return
// it with PutScratch. Pooled so concurrent executor threads each get
// their own without per-call allocation.
func (c *CSR) GetScratch() *Scratch { return c.scratch.Get().(*Scratch) }

// PutScratch returns a scratch to the pool, clean.
func (c *CSR) PutScratch(s *Scratch) {
	s.Reset()
	c.scratch.Put(s)
}

// FootprintBytes estimates the index's resident size for memory planning.
func (c *CSR) FootprintBytes() int64 {
	return int64(8*len(c.ids)) + int64(4*len(c.labels)) + int64(16*len(c.rank)) +
		int64(8*len(c.offsets)) + int64(4*len(c.edges)) + int64(8*len(c.dag))
}
