// Package graph provides the in-memory graph model used throughout the
// G-Miner reproduction: vertices with an ID, an adjacency list, an optional
// label and an optional attribute vector (§4 of the paper, "Graph
// notations").
//
// The model is deliberately simple and value-oriented: a Graph owns a slice
// of Vertex structs plus an index from VertexID to position. Algorithms and
// the runtime always work with sorted adjacency lists so that neighborhood
// intersections are linear.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. IDs need not be dense or contiguous.
type VertexID int64

// NoLabel is the label value of an unlabeled vertex.
const NoLabel int32 = -1

// Vertex holds one vertex: its ID id(v), adjacency list Γ(v), and the
// optional label / attribute list a(v) used by the attributed-graph
// applications (GM, CD, GC).
type Vertex struct {
	ID    VertexID
	Adj   []VertexID
	Label int32
	Attrs []int32
}

// Degree returns |Γ(v)|.
func (v *Vertex) Degree() int { return len(v.Adj) }

// HasNeighbor reports whether u ∈ Γ(v). Adjacency must be sorted.
func (v *Vertex) HasNeighbor(u VertexID) bool {
	i := sort.Search(len(v.Adj), func(i int) bool { return v.Adj[i] >= u })
	return i < len(v.Adj) && v.Adj[i] == u
}

// Clone returns a deep copy of the vertex.
func (v *Vertex) Clone() *Vertex {
	c := &Vertex{ID: v.ID, Label: v.Label}
	c.Adj = append([]VertexID(nil), v.Adj...)
	if v.Attrs != nil {
		c.Attrs = append([]int32(nil), v.Attrs...)
	}
	return c
}

// FootprintBytes estimates the in-memory size of the vertex, used by the
// memory accounting in internal/memctl and by cache sizing.
func (v *Vertex) FootprintBytes() int64 {
	return int64(8 + 4 + 8*len(v.Adj) + 4*len(v.Attrs) + 48)
}

// Graph is an undirected (by default) graph. Edges are stored in both
// endpoints' adjacency lists. The zero value is an empty graph ready to use.
//
// Vertices are heap-allocated individually so that *Vertex pointers handed
// out by Vertex/VertexAt/ForEach stay valid across later vertex insertions
// and deletions — the warm cluster Session's per-worker local tables hold
// such pointers across graph epochs (see internal/dyngraph).
type Graph struct {
	verts []*Vertex
	index map[VertexID]int

	// dead counts tombstoned slots (verts[i] == nil) left by DynDelVertex
	// until the next DynCompact.
	dead int

	// frozen is set once Freeze has sorted and deduplicated adjacency
	// lists; mutating methods panic afterwards to catch misuse. Live
	// mutation of a frozen graph goes through the Dyn* methods, which
	// preserve the frozen invariants op by op.
	frozen bool

	// deg is set on an oriented view alone (Orient, Reorient): by slot, the
	// degree of the vertex in the graph the view was cut from.
	deg []int32
}

// New returns an empty graph with capacity hint n.
func New(n int) *Graph {
	return &Graph{
		verts: make([]*Vertex, 0, n),
		index: make(map[VertexID]int, n),
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.verts) - g.dead }

// NumEdges returns |E| (each undirected edge counted once). Requires a
// frozen graph for an exact count; on an unfrozen graph duplicates may be
// double counted.
func (g *Graph) NumEdges() int64 {
	var total int64
	for _, v := range g.verts {
		if v != nil {
			total += int64(len(v.Adj))
		}
	}
	return total / 2
}

// AddVertex inserts a vertex with the given ID if absent and returns its
// slot. Label defaults to NoLabel.
func (g *Graph) AddVertex(id VertexID) *Vertex {
	if g.frozen {
		panic("graph: AddVertex on frozen graph")
	}
	if i, ok := g.index[id]; ok {
		return g.verts[i]
	}
	g.index[id] = len(g.verts)
	v := &Vertex{ID: id, Label: NoLabel}
	g.verts = append(g.verts, v)
	return v
}

// AddEdge inserts the undirected edge {u, w}, creating endpoints as needed.
// Self-loops are ignored. Duplicate edges are removed by Freeze.
func (g *Graph) AddEdge(u, w VertexID) {
	if u == w {
		return
	}
	vu := g.AddVertex(u)
	vu.Adj = append(vu.Adj, w)
	vw := g.AddVertex(w)
	vw.Adj = append(vw.Adj, u)
}

// SetLabel sets the label of vertex id, creating it if absent.
func (g *Graph) SetLabel(id VertexID, label int32) {
	g.AddVertex(id).Label = label
}

// SetAttrs sets the attribute list of vertex id, creating it if absent.
func (g *Graph) SetAttrs(id VertexID, attrs []int32) {
	g.AddVertex(id).Attrs = attrs
}

// Freeze sorts and deduplicates every adjacency list and marks the graph
// immutable. All runtime components require a frozen graph.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	for _, v := range g.verts {
		adj := v.Adj
		sort.Slice(adj, func(a, b int) bool { return adj[a] < adj[b] })
		out := adj[:0]
		var prev VertexID = -1
		for _, id := range adj {
			if id != prev {
				out = append(out, id)
				prev = id
			}
		}
		v.Adj = out
	}
	g.frozen = true
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

// Vertex returns the vertex with the given ID, or nil if absent. The
// returned pointer aliases graph storage; callers must not mutate it after
// Freeze.
func (g *Graph) Vertex(id VertexID) *Vertex {
	if i, ok := g.index[id]; ok {
		return g.verts[i]
	}
	return nil
}

// Has reports whether the graph contains vertex id.
func (g *Graph) Has(id VertexID) bool {
	_, ok := g.index[id]
	return ok
}

// VertexAt returns the i-th vertex in insertion order. Between a
// DynDelVertex and the next DynCompact it may return nil for tombstoned
// slots.
func (g *Graph) VertexAt(i int) *Vertex { return g.verts[i] }

// IDs returns all vertex IDs in insertion order.
func (g *Graph) IDs() []VertexID {
	ids := make([]VertexID, 0, len(g.verts))
	for _, v := range g.verts {
		if v != nil {
			ids = append(ids, v.ID)
		}
	}
	return ids
}

// ForEach calls fn for every vertex in insertion order, stopping early if
// fn returns false.
func (g *Graph) ForEach(fn func(v *Vertex) bool) {
	for _, v := range g.verts {
		if v == nil {
			continue
		}
		if !fn(v) {
			return
		}
	}
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, v := range g.verts {
		if v == nil {
			continue
		}
		if d := len(v.Adj); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average degree, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	var total int64
	for _, v := range g.verts {
		if v != nil {
			total += int64(len(v.Adj))
		}
	}
	return float64(total) / float64(n)
}

// NumAttrs returns the size of the attribute universe: the max attribute
// value + 1 across all vertices, or 0 if the graph is non-attributed.
func (g *Graph) NumAttrs() int {
	var max int32 = -1
	for _, v := range g.verts {
		if v == nil {
			continue
		}
		for _, a := range v.Attrs {
			if a > max {
				max = a
			}
		}
	}
	return int(max + 1)
}

// Attributed reports whether any vertex carries an attribute list.
func (g *Graph) Attributed() bool {
	for _, v := range g.verts {
		if v != nil && len(v.Attrs) > 0 {
			return true
		}
	}
	return false
}

// Labeled reports whether any vertex carries a label.
func (g *Graph) Labeled() bool {
	for _, v := range g.verts {
		if v != nil && v.Label != NoLabel {
			return true
		}
	}
	return false
}

// FootprintBytes estimates the total in-memory size of the graph.
func (g *Graph) FootprintBytes() int64 {
	var total int64
	for _, v := range g.verts {
		if v != nil {
			total += v.FootprintBytes()
		}
	}
	return total
}

// Validate checks structural invariants on a frozen graph: sorted,
// deduplicated, symmetric adjacency referring only to existing vertices.
func (g *Graph) Validate() error {
	if !g.frozen {
		return fmt.Errorf("graph: not frozen")
	}
	for _, v := range g.verts {
		if v == nil {
			continue
		}
		for j, u := range v.Adj {
			if j > 0 && v.Adj[j-1] >= u {
				return fmt.Errorf("graph: vertex %d adjacency not sorted/unique at %d", v.ID, j)
			}
			if u == v.ID {
				return fmt.Errorf("graph: vertex %d has self loop", v.ID)
			}
			w := g.Vertex(u)
			if w == nil {
				return fmt.Errorf("graph: vertex %d has dangling neighbor %d", v.ID, u)
			}
			if !w.HasNeighbor(v.ID) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", v.ID, u)
			}
		}
	}
	return nil
}

// Stats summarizes a graph in the format of Table 2 of the paper.
type Stats struct {
	Name     string
	V        int
	E        int64
	MaxDeg   int
	AvgDeg   float64
	NumAttrs int
}

// ComputeStats returns the Table 2 row for g.
func ComputeStats(name string, g *Graph) Stats {
	return Stats{
		Name:     name,
		V:        g.NumVertices(),
		E:        g.NumEdges(),
		MaxDeg:   g.MaxDegree(),
		AvgDeg:   g.AvgDegree(),
		NumAttrs: g.NumAttrs(),
	}
}

func (s Stats) String() string {
	attrs := "-"
	if s.NumAttrs > 0 {
		attrs = fmt.Sprintf("%d", s.NumAttrs)
	}
	return fmt.Sprintf("%-14s |V|=%-9d |E|=%-10d Max.Deg=%-7d Avg.Deg=%-8.3f |Attr|=%s",
		s.Name, s.V, s.E, s.MaxDeg, s.AvgDeg, attrs)
}
