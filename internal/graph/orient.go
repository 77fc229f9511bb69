package graph

import "slices"

// Orient returns G⁺, the degree-oriented view of frozen graph g: the same
// vertices in the same slots, each keeping only its neighbours of higher
// (degree, ID), still ID-sorted. Every undirected edge lives in exactly one
// forward list, so any walk that expands forward lists visits each
// triangle or clique once, from its lowest-ranked vertex, and a list is
// bounded by the arboricity rather than the degree (G2Miner's input
// orientation).
//
// The view is a pure function of g at the time of the call: equal graphs
// orient identically. Labels are copied by value, attribute slices and the
// external-ID column are shared with g, tombstoned slots stay tombstoned. It is
// read-only and belongs to the graph epoch it was cut from — after a Dyn*
// mutation of g it is stale: drop it, or patch it into the next epoch's view
// with Reorient.
func Orient(g *Graph) *Graph {
	g.requireFrozen("Orient")
	o, _ := Reorient(g, nil, nil)
	return o
}

// Reorient returns Orient(g) for a graph g that was prev's source until
// mutations that touched exactly the vertices in touched: every vertex they
// created or deleted and every one whose adjacency changed — the surviving
// neighbours of a deleted vertex included — over any number of batches
// (dyngraph's ApplyInfo.Touched, unioned).
//
// A forward list can change only at a touched vertex, or at an untouched one
// whose edge to a touched neighbour turned round because that neighbour's
// degree moved. Those rows are cut again; every other row is copied from
// prev's row in the same slot, since a vertex keeps its internal ID for
// good. The result is byte-identical to Orient(g) and shares no memory with
// prev, so a chain of patched views pins none of its ancestors. It also
// returns how many rows it cut: all of them when prev is nil, or when
// touched does not account for a vertex.
func Reorient(g, prev *Graph, touched map[VertexID]struct{}) (*Graph, int) {
	g.requireFrozen("Reorient")
	d := degreesOf(g)
	if prev == nil {
		return d.orient(nil, nil)
	}
	recut := make([]bool, len(g.verts))
	for id := range touched {
		if g.Has(id) {
			recut[id] = true
		}
	}
	for i, v := range g.verts {
		if v != nil && !recut[i] && prev.Vertex(VertexID(i)) == nil {
			return d.orient(nil, nil) // an untouched vertex prev never held
		}
	}
	// An untouched neighbour w of touched u kept the edge in its row iff u
	// outranked it before; it must iff u outranks it now.
	for u := range touched {
		if !g.Has(u) {
			continue
		}
		for _, w := range g.verts[u].Adj {
			if !recut[w] {
				_, was := slices.BinarySearch(prev.verts[w].Adj, u)
				recut[w] = was != outranks(d.deg[u], d.deg[w], u, w)
			}
		}
	}
	return d.orient(prev, recut)
}

// degrees is a frozen graph's (degree, ID) order, the order Orient cuts by,
// read off the graph once: deg holds each vertex's degree by internal ID, so
// finding a neighbour's degree costs one array read rather than a pointer
// chase.
type degrees struct {
	g     *Graph
	deg   []int32
	edges int64
}

func degreesOf(g *Graph) degrees {
	d := degrees{g: g, deg: make([]int32, len(g.verts))}
	for i, v := range g.verts {
		if v != nil {
			d.deg[i] = int32(len(v.Adj))
			d.edges += int64(len(v.Adj))
		}
	}
	d.edges /= 2
	return d
}

// orient lays out the view: the rows recut marks (every row, with prev nil)
// are cut from g, the others copied from prev's row in the same slot. It
// returns the view and the number of rows it cut.
func (d *degrees) orient(prev *Graph, recut []bool) (*Graph, int) {
	g := d.g
	o := &Graph{verts: make([]*Vertex, len(g.verts)), ext: g.ext, dead: g.dead, frozen: true, deg: d.deg}
	vs := make([]Vertex, g.NumVertices())
	fwd := make([]VertexID, 0, d.edges)
	cut := 0
	for i, v := range g.verts {
		if v == nil {
			continue
		}
		start := len(fwd)
		if prev == nil || recut[i] {
			fwd = d.cut(fwd, v)
			cut++
		} else {
			// The row, its label and attributes are prev's: the vertex and
			// its neighbours' degrees are as they were.
			v = prev.verts[i]
			fwd = append(fwd, v.Adj...)
		}
		r := &vs[0]
		r.ID, r.Adj, r.Label, r.Attrs = v.ID, fwd[start:len(fwd):len(fwd)], v.Label, v.Attrs
		o.verts[i], vs = r, vs[1:]
	}
	return o, cut
}

// cut appends to fwd the neighbours of v that outrank it.
func (d *degrees) cut(fwd []VertexID, v *Vertex) []VertexID {
	for _, u := range v.Adj {
		if outranks(d.deg[u], d.deg[v.ID], u, v.ID) {
			fwd = append(fwd, u)
		}
	}
	return fwd
}

// ResidentBudgetPerVertex is the byte budget of a view's resident set, per
// vertex of the view: what a slot of the engine's vertex directory weighs. The
// columns replicated on every worker may double for the lists that save the
// most pulls, no more — a budget read off the structure it rides in, so there
// is nothing to tune. The engine and algo.SeqRun cut the same set with it.
const ResidentBudgetPerVertex = 16

// HotLists ranks the forward lists of o = Orient(g) by what replicating one
// buys per byte it costs, and returns the IDs of the longest prefix of that
// ranking whose lists weigh at most budget bytes together, densest first.
//
// A list is read once for every forward list it appears in, and an edge of
// u that Orient did not keep in Γ⁺(u) it kept at the other end: u's
// in-references are deg(u) − |Γ⁺(u)|, the degree column the view was cut by
// less the row's length, so the ranking costs a pass over the view and never
// looks at an edge or at g. Density is in-references per
// Vertex.FootprintBytes of the forward list, compared exactly, ties by ID; a
// list nobody references is never taken. Orientation makes the ranking steep
// — hubs are in every list and keep almost nothing — where on an undirected
// view it would be flat: a list there is referenced exactly as often as it is
// long.
//
// refs[i] is the in-reference count of ids[i]. Like Orient it is a pure
// function of g: equal graphs pick equal sets.
func HotLists(o *Graph, budget int64) (ids []VertexID, refs []int64) {
	ranked := make([]hotList, 0, o.NumVertices())
	for i, v := range o.verts {
		if v == nil {
			continue
		}
		if refs := int(o.deg[i]) - len(v.Adj); refs > 0 {
			ranked = append(ranked, hotList{int64(refs), v.FootprintBytes(), v.ID})
		}
	}
	// The budget buys a few lists in a hundred: a heap yields them in rank
	// order for O(|V|) plus a logarithm per list taken, where sorting the
	// whole ranking would cost more than the selection is worth on a small
	// epoch.
	for i := len(ranked)/2 - 1; i >= 0; i-- {
		siftDown(ranked, i)
	}
	for len(ranked) > 0 {
		if budget -= ranked[0].foot; budget < 0 {
			break
		}
		ids, refs = append(ids, ranked[0].id), append(refs, ranked[0].refs)
		last := len(ranked) - 1
		ranked[0], ranked = ranked[last], ranked[:last]
		siftDown(ranked, 0)
	}
	return ids, refs
}

// hotList is one forward list in HotLists' ranking.
type hotList struct {
	refs, foot int64
	id         VertexID
}

// before reports whether a ranks ahead of b: more in-references per byte
// (a.refs/a.foot against b.refs/b.foot, cross-multiplied), ties by ID.
func (a hotList) before(b hotList) bool {
	if l, r := a.refs*b.foot, b.refs*a.foot; l != r {
		return l > r
	}
	return a.id < b.id
}

// siftDown restores the heap order (the list ranking first on top) below i.
func siftDown(h []hotList, i int) {
	for {
		top := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[top]) {
			top = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[top]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// outranks reports whether u, of degree du, follows v, of degree dv, in the
// (degree, ID) order.
func outranks(du, dv int32, u, v VertexID) bool {
	return du > dv || (du == dv && u > v)
}
