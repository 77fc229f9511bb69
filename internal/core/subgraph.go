// Package core defines the task model at the heart of G-Miner (§4.2 of
// the paper): a graph mining job is decomposed into independent tasks,
// each holding an intermediate subgraph g, the candidate vertex IDs for
// the next round, and algorithm-specific context. A task's lifetime —
// active → inactive → ready → … → dead — is where the worker's pipeline
// (internal/cluster) holds it, recorded by its trace events; the task
// itself carries no status.
package core

import (
	"sort"

	"gminer/internal/graph"
	"gminer/internal/wire"
)

// Subgraph is the intermediate subgraph g carried by a task. It stores a
// sorted vertex set plus an optional explicit edge set; most algorithms
// (TC, MCF) only need the vertex set, while GM/CD record matched edges.
type Subgraph struct {
	verts []graph.VertexID // sorted, unique
	edges [][2]graph.VertexID
}

// Len returns |V(g)|.
func (s *Subgraph) Len() int { return len(s.verts) }

// NumEdges returns the number of explicitly recorded edges.
func (s *Subgraph) NumEdges() int { return len(s.edges) }

// Vertices returns the sorted vertex set. The slice aliases internal
// storage; callers must not mutate it.
func (s *Subgraph) Vertices() []graph.VertexID { return s.verts }

// Edges returns the recorded edge list (aliases internal storage).
func (s *Subgraph) Edges() [][2]graph.VertexID { return s.edges }

// Has reports whether id is in the subgraph.
func (s *Subgraph) Has(id graph.VertexID) bool {
	i := sort.Search(len(s.verts), func(i int) bool { return s.verts[i] >= id })
	return i < len(s.verts) && s.verts[i] == id
}

// AddVertex inserts id, keeping the set sorted; duplicates are ignored.
func (s *Subgraph) AddVertex(id graph.VertexID) {
	i := sort.Search(len(s.verts), func(i int) bool { return s.verts[i] >= id })
	if i < len(s.verts) && s.verts[i] == id {
		return
	}
	s.verts = append(s.verts, 0)
	copy(s.verts[i+1:], s.verts[i:])
	s.verts[i] = id
}

// AddVertices inserts several IDs ("subG.addNodes(S)" in Listing 2).
func (s *Subgraph) AddVertices(ids ...graph.VertexID) {
	for _, id := range ids {
		s.AddVertex(id)
	}
}

// RemoveVertex deletes id and any recorded edges touching it (the "shrink"
// operation of the general mining schema, §4.1).
func (s *Subgraph) RemoveVertex(id graph.VertexID) {
	i := sort.Search(len(s.verts), func(i int) bool { return s.verts[i] >= id })
	if i >= len(s.verts) || s.verts[i] != id {
		return
	}
	s.verts = append(s.verts[:i], s.verts[i+1:]...)
	out := s.edges[:0]
	for _, e := range s.edges {
		if e[0] != id && e[1] != id {
			out = append(out, e)
		}
	}
	s.edges = out
}

// AddEdge records the edge {u, w}, inserting both endpoints.
func (s *Subgraph) AddEdge(u, w graph.VertexID) {
	if u > w {
		u, w = w, u
	}
	s.AddVertex(u)
	s.AddVertex(w)
	for _, e := range s.edges {
		if e[0] == u && e[1] == w {
			return
		}
	}
	s.edges = append(s.edges, [2]graph.VertexID{u, w})
}

// Clone returns a deep copy — used by task splitting, where children start
// from the parent's subgraph.
func (s *Subgraph) Clone() Subgraph {
	c := Subgraph{}
	c.verts = append([]graph.VertexID(nil), s.verts...)
	if s.edges != nil {
		c.edges = append([][2]graph.VertexID(nil), s.edges...)
	}
	return c
}

// FootprintBytes estimates the in-memory size, used for memory accounting
// and the migration cost function.
func (s *Subgraph) FootprintBytes() int64 {
	return int64(8*len(s.verts) + 16*len(s.edges) + 48)
}

func encodeSubgraph(w *wire.Writer, s *Subgraph) {
	wire.EncodeIDs(w, s.verts)
	w.Uvarint(uint64(len(s.edges)))
	for _, e := range s.edges {
		w.Varint(int64(e[0]))
		w.Varint(int64(e[1]))
	}
}

func decodeSubgraph(r *wire.Reader) Subgraph {
	var s Subgraph
	s.verts = wire.DecodeIDs(r)
	// Each edge is two varints, ≥2 bytes; Count bounds the allocation
	// against the bytes actually present (fuzz hardening).
	n := r.Count(2)
	if n > 0 {
		s.edges = make([][2]graph.VertexID, 0, n)
		for i := 0; i < n; i++ {
			u := graph.VertexID(r.Varint())
			v := graph.VertexID(r.Varint())
			s.edges = append(s.edges, [2]graph.VertexID{u, v})
		}
	}
	return s
}
