package graph

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Labels is the label column of one graph epoch: the label of every vertex,
// by internal ID, readable without the vertex in hand. A lookup is one load
// that inlines into the caller's loop. Like any per-vertex column it belongs
// to the epoch it was cut in: a Dyn* mutation of the graph calls for a new
// one.
//
// It also owns the epoch's label-degree column, cut on the first ask for a
// row (Degrees): for each vertex, how many of its neighbours carry each
// label. An epoch nobody asks of never pays for it.
type Labels struct {
	col   []int32   // by internal ID; emptySlot where the graph has no vertex
	verts []*Vertex // the epoch's vertex table, read only behind emptySlot

	degOnce  sync.Once
	degOff   []int32      // vertex id's row is degRows[degOff[id]:degOff[id+1]]
	degRows  []LabelCount // each row ascending by label
	degBytes atomic.Int64 // the two arrays' bytes, once cut
}

// LabelCount is one entry of a label-degree row: Count neighbours of the
// row's vertex carry Label.
type LabelCount struct {
	Label, Count int32
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

// Degrees returns vertex id's label-degree row: one entry per label its
// neighbours carry, ascending by label, with how many of them carry it. A
// vertex with no neighbour, or an ID the graph has no vertex for, has an
// empty row. The first call cuts the column for the whole epoch; every
// caller, on any goroutine, then reads that one.
func (l *Labels) Degrees(id VertexID) []LabelCount {
	l.degOnce.Do(l.cutDegrees)
	if uint64(id) < uint64(len(l.degOff)-1) {
		return l.degRows[l.degOff[id]:l.degOff[id+1]]
	}
	return nil
}

// cutDegrees fills the label-degree column in two passes. The first ranks
// every vertex's label in the epoch's alphabet, ranks ascending as labels
// do (an empty slot ranks −1), and bounds the pairs at min(degree,
// alphabet) a vertex; the second counts each vertex's neighbours by rank,
// sorts the ranks it met and emits its row in rank order, so in label
// order with no comparator.
func (l *Labels) cutDegrees() {
	ranks, rank := map[int32]int32{}, make([]int32, len(l.col))
	var alphabet []int32
	for id, label := range l.col {
		if l.verts[id] == nil {
			rank[id] = -1 // no vertex: Of does not know it either
			continue
		}
		r, ok := ranks[label]
		if !ok {
			r, alphabet = int32(len(alphabet)), append(alphabet, label)
			ranks[label] = r
		}
		rank[id] = r
	}
	sorted, byLabel := slices.Clone(alphabet), make([]int32, len(alphabet))
	slices.Sort(sorted)
	for r, label := range sorted {
		byLabel[ranks[label]] = int32(r)
	}
	for id, r := range rank {
		if r >= 0 {
			rank[id] = byLabel[r]
		}
	}
	bound := 0
	for _, v := range l.verts {
		if v != nil {
			bound += min(len(v.Adj), len(sorted))
		}
	}
	off, rows := make([]int32, len(l.col)+1), make([]LabelCount, 0, bound)
	count, met := make([]int32, len(sorted)), []int32(nil)
	for id, v := range l.verts {
		if v != nil {
			met = met[:0]
			for _, u := range v.Adj {
				r := rank[u]
				if r < 0 {
					continue
				}
				if count[r] == 0 {
					met = append(met, r)
				}
				count[r]++
			}
			slices.Sort(met)
			for _, r := range met {
				rows = append(rows, LabelCount{Label: sorted[r], Count: count[r]})
				count[r] = 0
			}
		}
		off[id+1] = int32(len(rows))
	}
	l.degOff, l.degRows = off, rows
	l.degBytes.Store(int64(4*len(off) + 8*len(rows)))
}

// DegreeBytes is the size of the label-degree column: 0 until a row is asked
// for, then its offsets and pairs.
func (l *Labels) DegreeBytes() int64 { return l.degBytes.Load() }
