package graph

import "math"

// Labels is the label column of one graph epoch: the label of every vertex,
// by internal ID, readable without the vertex in hand. A lookup is one load
// that inlines into the caller's loop. Like any per-vertex column it belongs
// to the epoch it was cut in: a Dyn* mutation of the graph calls for a new
// one.
type Labels struct {
	col   []int32   // by internal ID; emptySlot where the graph has no vertex
	verts []*Vertex // the epoch's vertex table, read only behind emptySlot
}

// emptySlot marks a slot with no vertex. Labels are any int32, so a vertex
// labelled emptySlot is told from a tombstone by its slot in the table.
const emptySlot = math.MinInt32

// NewLabels returns g's label column with no label entered yet. The caller
// enters every vertex of g with Set, in the pass it makes over g anyway;
// LabelColumn is NewLabels plus that pass.
func NewLabels(g *Graph) *Labels {
	l := &Labels{col: make([]int32, len(g.verts)), verts: g.verts}
	for i := range l.col {
		l.col[i] = emptySlot
	}
	return l
}

// Set enters v's label.
func (l *Labels) Set(v *Vertex) { l.col[v.ID] = v.Label }

// Of returns the label of vertex id, and false when the graph has no such
// vertex.
func (l *Labels) Of(id VertexID) (int32, bool) {
	if uint64(id) < uint64(len(l.col)) {
		if label := l.col[id]; label != emptySlot || l.verts[id] != nil {
			return label, true
		}
	}
	return 0, false
}

// LabelColumn cuts g's label column as it is now.
func (g *Graph) LabelColumn() *Labels {
	l := NewLabels(g)
	g.ForEach(func(v *Vertex) bool {
		l.Set(v)
		return true
	})
	return l
}
