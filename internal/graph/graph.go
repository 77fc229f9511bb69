// Package graph provides the in-memory graph model used throughout the
// G-Miner reproduction: vertices with an ID, an adjacency list, an optional
// label and an optional attribute vector (§4 of the paper, "Graph
// notations").
//
// A vertex has two IDs. Its external ID is the one a graph file, a mutation
// or a result record names: any int64. Its internal ID is its slot in the
// graph: Freeze numbers the vertices 0..n−1 in ascending external-ID order,
// and a mutation's new external ID gets the next slot. Vertex.ID and every
// adjacency entry of a frozen graph are internal IDs, so every per-vertex
// structure of the engine is a slice indexed by one, and the external IDs
// come back only at the boundary: External, and the writers. Because the
// numbering is monotone, every comparison of two IDs of a frozen graph
// answers as it would on their external IDs. Adjacency lists are kept sorted
// so that neighborhood intersections are linear.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// VertexID identifies a vertex. On a frozen graph it is an internal ID, the
// vertex's slot, dense from 0; before Freeze, and in files, mutations and
// records, it is an external ID, any int64 (see the package comment).
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
	_, ok := slices.BinarySearch(v.Adj, u)
	return ok
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
// endpoints' adjacency lists. New returns an empty graph ready to use.
//
// Vertices are heap-allocated individually so that *Vertex pointers handed
// out by Vertex/VertexAt/ForEach stay valid across later vertex insertions
// and deletions — the warm cluster Session's per-worker local tables hold
// such pointers across graph epochs (see internal/dyngraph).
type Graph struct {
	// verts is the vertex table by internal ID; a slot whose vertex
	// DynDelVertex deleted holds nil (a tombstone) for good.
	verts []*Vertex
	// ext maps internal IDs to external ones, tombstones included.
	ext []VertexID
	// index maps external IDs to internal ones (before Freeze: to insertion
	// positions). Only ingress reads it: AddVertex and Vertex before Freeze,
	// which the file readers build through, and the mutation path after it
	// (Lookup, DynAddVertex).
	index map[VertexID]VertexID

	// dead counts tombstoned slots.
	dead int

	// frozen is set once Freeze has numbered the vertices and sorted and
	// deduplicated adjacency lists; mutating methods panic afterwards to
	// catch misuse. Live mutation of a frozen graph goes through the Dyn*
	// methods, which preserve the frozen invariants op by op.
	frozen bool

	// deg is set on an oriented view alone (Orient, Reorient): by slot, the
	// degree of the vertex in the graph the view was cut from.
	deg []int32
}

// New returns an empty graph with capacity hint n.
func New(n int) *Graph {
	return &Graph{
		verts: make([]*Vertex, 0, n),
		index: make(map[VertexID]VertexID, n),
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.verts) - g.dead }

// Slots returns the number of internal IDs the graph has issued: every
// internal ID is below it, tombstones included. A slice of Slots() entries
// indexed by internal ID is a per-vertex column of the graph.
func (g *Graph) Slots() int { return len(g.verts) }

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

// AddVertex inserts a vertex with external ID id if absent and returns it.
// Label defaults to NoLabel.
func (g *Graph) AddVertex(id VertexID) *Vertex {
	if g.frozen {
		panic("graph: AddVertex on frozen graph")
	}
	if i, ok := g.index[id]; ok {
		return g.verts[i]
	}
	g.index[id] = VertexID(len(g.verts))
	v := &Vertex{ID: id, Label: NoLabel}
	g.verts = append(g.verts, v)
	return v
}

// AddEdge inserts the undirected edge {u, w} between external IDs, creating
// endpoints as needed. Self-loops are ignored. Duplicate edges are removed by
// Freeze.
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

// Freeze numbers the vertices 0..n−1 in ascending external-ID order, turns
// every adjacency entry into an internal ID, sorts and deduplicates every
// adjacency list (dropping self-loops) and marks the graph immutable. All
// runtime components require a frozen graph. It panics on an adjacency
// entry naming no vertex of the graph, which AddEdge never leaves.
func (g *Graph) Freeze() {
	if err := g.freeze(); err != nil {
		panic(err)
	}
}

// freeze is Freeze, returning the dangling adjacency entry it found as an
// error: the file readers' ingress, where a file can name anything.
func (g *Graph) freeze() error {
	if g.frozen {
		return nil
	}
	byID := func(a, b *Vertex) int { return cmp.Compare(a.ID, b.ID) }
	if !slices.IsSortedFunc(g.verts, byID) {
		slices.SortFunc(g.verts, byID)
		for i, v := range g.verts {
			g.index[v.ID] = VertexID(i)
		}
	}
	n := len(g.verts)
	g.ext = make([]VertexID, n)
	for i, v := range g.verts {
		g.ext[i], v.ID = v.ID, VertexID(i)
	}
	// External IDs 0..n−1 are their own internal IDs: the generators' graphs
	// resolve with a range check instead of a lookup per entry.
	identity := n == 0 || g.ext[0] == 0 && g.ext[n-1] == VertexID(n-1)
	for _, v := range g.verts {
		adj := v.Adj
		for j, u := range adj {
			if identity && uint64(u) < uint64(n) {
				continue
			}
			i, ok := g.index[u]
			if identity || !ok {
				return fmt.Errorf("graph: vertex %d has dangling neighbor %d", g.ext[v.ID], u)
			}
			adj[j] = i
		}
		slices.Sort(adj)
		adj = slices.Compact(adj)
		if i, ok := slices.BinarySearch(adj, v.ID); ok {
			adj = slices.Delete(adj, i, i+1)
		}
		v.Adj = adj
	}
	g.frozen = true
	return nil
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

// Vertex returns the vertex with internal ID id, or nil if the graph has
// none (before Freeze: the vertex with external ID id). The returned pointer
// aliases graph storage; callers must not mutate it after Freeze.
func (g *Graph) Vertex(id VertexID) *Vertex {
	if !g.frozen {
		if i, ok := g.index[id]; ok {
			return g.verts[i]
		}
		return nil
	}
	if uint64(id) < uint64(len(g.verts)) {
		return g.verts[id]
	}
	return nil
}

// Has reports whether the graph contains vertex id.
func (g *Graph) Has(id VertexID) bool { return g.Vertex(id) != nil }

// VertexAt returns the vertex in slot i: after Freeze, the one with internal
// ID i, or nil for a tombstone.
func (g *Graph) VertexAt(i int) *Vertex { return g.verts[i] }

// External returns the external ID of internal ID id: what a file, a
// mutation or a record names the vertex by. Before Freeze IDs are external.
func (g *Graph) External(id VertexID) VertexID {
	if g.ext == nil {
		return id
	}
	return g.ext[id]
}

// Lookup returns the internal ID of external ID ext — live, or tombstoned
// by DynDelVertex — and false when the graph never held it. It is ingress:
// a mutation names external IDs, and nothing past it reads the map.
func (g *Graph) Lookup(ext VertexID) (VertexID, bool) {
	i, ok := g.index[ext]
	return i, ok
}

// IDs returns the internal IDs of all vertices, ascending.
func (g *Graph) IDs() []VertexID {
	ids := make([]VertexID, 0, g.NumVertices())
	for _, v := range g.verts {
		if v != nil {
			ids = append(ids, v.ID)
		}
	}
	return ids
}

// ForEach calls fn for every vertex in internal-ID order, stopping early if
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
// Errors name external IDs.
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
				return fmt.Errorf("graph: vertex %d adjacency not sorted/unique at %d", g.External(v.ID), j)
			}
			if u == v.ID {
				return fmt.Errorf("graph: vertex %d has self loop", g.External(v.ID))
			}
			w := g.Vertex(u)
			if w == nil {
				return fmt.Errorf("graph: vertex %d has dangling neighbor (internal ID %d)", g.External(v.ID), u)
			}
			if !w.HasNeighbor(v.ID) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", g.External(v.ID), g.External(u))
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
