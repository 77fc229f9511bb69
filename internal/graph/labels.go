package graph

import "math"

// Labels is the label column of one graph epoch: the label of every vertex,
// readable by ID without the vertex in hand. On dense IDs (DenseIDs) it is a
// flat column indexed by id − base, and a lookup is one load that inlines
// into the caller's loop; on sparse IDs it reads the graph's index. Like any
// ID-indexed view it belongs to the epoch it was cut in: a Dyn* mutation of
// the graph calls for a new one.
type Labels struct {
	base VertexID
	col  []int32 // dense arm: col[id−base], emptySlot where the graph has no vertex
	g    *Graph  // sparse arm (col nil): the graph's index
}

// emptySlot marks an ID of the span with no vertex. Labels are any int32, so
// a graph that gives a vertex this one reads through the sparse arm instead.
const emptySlot = math.MinInt32

// NewLabels returns g's label column with no label entered yet, dense over
// [base, base+span) when g.DenseIDs says so (the caller has its answer in
// hand). The caller enters every vertex of g with Set, in the pass it makes
// over g anyway; LabelColumn is NewLabels plus that pass.
func NewLabels(g *Graph, base VertexID, span int, dense bool) *Labels {
	l := &Labels{g: g}
	if dense {
		l.base, l.col = base, make([]int32, span)
		for i := range l.col {
			l.col[i] = emptySlot
		}
	}
	return l
}

// Set enters v's label.
func (l *Labels) Set(v *Vertex) {
	switch {
	case l.col == nil: // the index has it
	case v.Label == emptySlot:
		l.col = nil
	default:
		l.col[v.ID-l.base] = v.Label
	}
}

// Of returns the label of vertex id, and false when the graph has no such
// vertex. It inlines: on the dense arm a lookup is one load, on the sparse
// arm a map access.
func (l *Labels) Of(id VertexID) (int32, bool) {
	if i := uint64(id - l.base); i < uint64(len(l.col)) {
		label := l.col[i]
		return label, label != emptySlot
	}
	if l.col == nil {
		if v := l.g.Vertex(id); v != nil {
			return v.Label, true
		}
	}
	return 0, false
}

// Dense reports whether l is a flat column (a lookup is one load).
func (l *Labels) Dense() bool { return l.col != nil }

// LabelColumn cuts g's label column as it is now.
func (g *Graph) LabelColumn() *Labels {
	base, span, dense := g.DenseIDs()
	l := NewLabels(g, base, span, dense)
	g.ForEach(func(v *Vertex) bool {
		l.Set(v)
		return true
	})
	return l
}
