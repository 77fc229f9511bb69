package graph

import "sort"

// Live mutation of a frozen graph.
//
// The Dyn* methods mutate a frozen graph in place while preserving every
// Freeze/Validate invariant op by op: adjacency stays sorted, deduplicated,
// symmetric and self-loop free. They exist for the dynamic-graph subsystem
// (internal/dyngraph), which serializes them against running jobs at the
// Session layer; the methods themselves are not concurrency safe.
//
// Vertices are named by internal ID, except by DynAddVertex, which takes
// the mutation's external ID: a new one gets the next slot. Vertex deletion
// tombstones the slot (verts[i] = nil) for good, so no surviving vertex ever
// changes its internal ID, and re-adding the external ID revives the slot.

// adjInsert inserts id into a sorted adjacency list, reporting whether it
// was absent.
func adjInsert(adj []VertexID, id VertexID) ([]VertexID, bool) {
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= id })
	if i < len(adj) && adj[i] == id {
		return adj, false
	}
	adj = append(adj, 0)
	copy(adj[i+1:], adj[i:])
	adj[i] = id
	return adj, true
}

// adjRemove removes id from a sorted adjacency list, reporting whether it
// was present.
func adjRemove(adj []VertexID, id VertexID) ([]VertexID, bool) {
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= id })
	if i >= len(adj) || adj[i] != id {
		return adj, false
	}
	return append(adj[:i], adj[i+1:]...), true
}

func (g *Graph) requireFrozen(op string) {
	if !g.frozen {
		panic("graph: " + op + " on unfrozen graph (use AddVertex/AddEdge before Freeze)")
	}
}

// DynAddVertex inserts an isolated vertex with external ID ext and the
// given label and attributes into a frozen graph, and returns its internal
// ID: the slot ext had, if a DynDelVertex tombstoned it, else the next one.
// It reports whether the vertex was absent; an existing vertex is left
// untouched (annotations are never rewritten by the mutation path — they are
// fixed at creation, like Prepare fixes them at load).
func (g *Graph) DynAddVertex(ext VertexID, label int32, attrs []int32) (VertexID, bool) {
	g.requireFrozen("DynAddVertex")
	id, ok := g.index[ext]
	if ok && g.verts[id] != nil {
		return id, false
	}
	v := &Vertex{ID: id, Label: label}
	if len(attrs) > 0 {
		v.Attrs = append([]int32(nil), attrs...)
	}
	if ok {
		g.verts[id] = v
		g.dead--
		return id, true
	}
	v.ID = VertexID(len(g.verts))
	g.index[ext] = v.ID
	g.verts, g.ext = append(g.verts, v), append(g.ext, ext)
	return v.ID, true
}

// DynDelVertex removes vertex id and every edge incident to it, returning
// the former neighbor list (callers maintaining edge aggregates need it).
// The slot stays a tombstone. Returns (nil, false) if the vertex does not
// exist.
func (g *Graph) DynDelVertex(id VertexID) ([]VertexID, bool) {
	g.requireFrozen("DynDelVertex")
	v := g.Vertex(id)
	if v == nil {
		return nil, false
	}
	removed := append([]VertexID(nil), v.Adj...)
	for _, nb := range removed {
		w := g.verts[nb]
		w.Adj, _ = adjRemove(w.Adj, id)
	}
	g.verts[id] = nil
	g.dead++
	return removed, true
}

// DynAddEdge inserts the undirected edge {u, w} between two existing
// vertices of a frozen graph, reporting whether it was absent. Self-loops
// and edges with a missing endpoint are rejected (no-op, false).
func (g *Graph) DynAddEdge(u, w VertexID) bool {
	g.requireFrozen("DynAddEdge")
	if u == w {
		return false
	}
	vu, vw := g.Vertex(u), g.Vertex(w)
	if vu == nil || vw == nil {
		return false
	}
	var added bool
	if vu.Adj, added = adjInsert(vu.Adj, w); !added {
		return false
	}
	vw.Adj, _ = adjInsert(vw.Adj, u)
	return true
}

// DynDelEdge removes the undirected edge {u, w} from a frozen graph,
// reporting whether it was present.
func (g *Graph) DynDelEdge(u, w VertexID) bool {
	g.requireFrozen("DynDelEdge")
	vu, vw := g.Vertex(u), g.Vertex(w)
	if vu == nil || vw == nil {
		return false
	}
	var removed bool
	if vu.Adj, removed = adjRemove(vu.Adj, w); !removed {
		return false
	}
	vw.Adj, _ = adjRemove(vw.Adj, u)
	return true
}
