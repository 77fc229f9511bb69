package cluster

import (
	"cmp"
	"math"
	"slices"

	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/partition"
)

// directory answers "who owns ID x, and which vertex is it" for one view of
// the resident graph — g or G⁺ — at one graph epoch. Every worker of every
// job on that view shares it read-only; a mutation batch retires it with
// the epoch, since both the ID span and the owners may have moved. When the
// view's IDs are dense (graph.DenseIDs, the rule TC's bitmap goes by) a
// lookup is one load from an array indexed by id − base; otherwise it is the
// hash tables of Figure 4, one per worker, plus the assignment's owner map.
//
// Owner and label are replicated on every worker for every vertex of the
// graph. Adjacency and attributes live with the owner alone and reach anybody
// else only by pull — except, on the oriented view, the resident set: the
// forward lists referenced most per byte (graph.HotLists), which every worker
// reads in place. What a worker finds without a pull is local's answer and
// nobody else's; owner keeps naming the one worker that seeds and serves the
// vertex.
type directory struct {
	assign *partition.Assignment

	base  graph.VertexID
	slots []dirSlot // dense arm; nil on the sparse one

	// Sparse arm, by worker. A resident vertex is entered in every worker's
	// table (on the dense arm it is marked in its slot).
	tables []map[graph.VertexID]*graph.Vertex

	// residentLists and residentBytes size the resident set (reporting, and
	// the workers' memory accounts); residentRows counts the lists the view's
	// resident core holds as bit rows (0: the view offers no core).
	residentLists int
	residentBytes int64
	residentRows  int
}

// dirSlot is 16 bytes, resident mark and label included: they sit in what
// was padding after a 4-byte owner (denseWorkers keeps owners in 15 bits).
type dirSlot struct {
	v        *graph.Vertex
	owner    int16
	resident bool // in the view's resident set
	label    int32
}

// denseWorkers is the largest cluster the dense arm's slot can name an owner
// in; a larger one reads the graph through the sparse arm.
const denseWorkers = math.MaxInt16

// newDirectory fills the directory of view g in one pass over its vertices.
// visit, if non-nil, is shown every owned vertex with its owner on the way:
// whatever else an epoch must learn per vertex (the workers' seed scans, a
// view's footprints) rides this pass instead of making its own.
func newDirectory(g *graph.Graph, assign *partition.Assignment, visit func(v *graph.Vertex, owner int)) *directory {
	d := &directory{assign: assign}
	if base, span, ok := g.DenseIDs(); ok && assign.K <= denseWorkers {
		d.fillDense(g, base, span, visit)
	} else {
		d.fillSparse(g, visit)
	}
	return d
}

func (d *directory) fillDense(g *graph.Graph, base graph.VertexID, span int, visit func(*graph.Vertex, int)) {
	d.base, d.slots = base, make([]dirSlot, span)
	for i := range d.slots {
		d.slots[i].owner = -1
	}
	g.ForEach(func(v *graph.Vertex) bool {
		w := d.assign.Owner(v.ID)
		d.slots[v.ID-base] = dirSlot{v: v, owner: int16(w), label: v.Label}
		if w >= 0 && visit != nil {
			visit(v, w)
		}
		return true
	})
}

func (d *directory) fillSparse(g *graph.Graph, visit func(*graph.Vertex, int)) {
	d.tables = make([]map[graph.VertexID]*graph.Vertex, d.assign.K)
	for i, n := range d.assign.Sizes() {
		d.tables[i] = make(map[graph.VertexID]*graph.Vertex, n)
	}
	g.ForEach(func(v *graph.Vertex) bool {
		if w := d.assign.Owner(v.ID); w >= 0 {
			d.tables[w][v.ID] = v
			if visit != nil {
				visit(v, w)
			}
		}
		return true
	})
}

// owner returns the worker owning id, -1 if nobody does.
func (d *directory) owner(id graph.VertexID) int {
	if d.slots == nil {
		return d.assign.Owner(id)
	}
	if i := uint64(id - d.base); i < uint64(len(d.slots)) {
		return int(d.slots[i].owner)
	}
	return -1
}

// label returns the label of vertex id and whether the graph has such a
// vertex. It is the lookup core.LabelPruner algorithms are offered: what a
// worker may know about a vertex it does not own without pulling it.
func (d *directory) label(id graph.VertexID) (int32, bool) {
	if d.slots == nil {
		if w := d.assign.Owner(id); w >= 0 {
			if v := d.tables[w][id]; v != nil {
				return v.Label, true
			}
		}
		return 0, false
	}
	if i := uint64(id - d.base); i < uint64(len(d.slots)) && d.slots[i].owner >= 0 {
		return d.slots[i].label, true
	}
	return 0, false
}

// local returns vertex id if worker self reads it without a pull — it owns
// the vertex, or the view keeps its list resident on every worker — else nil.
func (d *directory) local(id graph.VertexID, self int) *graph.Vertex {
	if d.slots == nil {
		return d.tables[self][id]
	}
	if i := uint64(id - d.base); i < uint64(len(d.slots)) {
		if s := &d.slots[i]; int(s.owner) == self || s.resident {
			return s.v
		}
	}
	return nil
}

// keepResident makes the lists of ids — vertices of the directory's view —
// resident on every worker, and charges each worker's account in foot for
// the ones it does not own. It completes a directory under construction:
// once workers read the directory it never changes.
func (d *directory) keepResident(ids []graph.VertexID, foot []int64) {
	for _, id := range ids {
		owner := d.owner(id)
		v := d.local(id, owner)
		if d.slots != nil {
			d.slots[id-d.base].resident = true
		}
		for w := range foot {
			if w == owner {
				continue
			}
			foot[w] += v.FootprintBytes()
			if d.slots == nil {
				d.tables[w][id] = v
			}
		}
		d.residentBytes += v.FootprintBytes()
	}
	d.residentLists = len(ids)
}

// vertexTables is what a job's workers read the graph through: the view's
// directory and each worker's seed scan.
type vertexTables struct {
	dir    *directory
	locals []*localTable
}

// localTable is one worker's partition scan: its vertices in hash-shuffled
// seed order and their footprint. It is read-only after build, so a Session
// shares one instance across every job's worker i instead of rebuilding it
// per job, and a mutation batch rebuilds only the workers it touched. The
// scan order depends on the IDs alone, so the oriented view's tables share
// the base tables' ids and differ only in footprint.
type localTable struct {
	ids       []graph.VertexID
	footprint int64
}

// newVertexTables cuts view g's directory and, in the directory's one pass
// over the graph, the seed scan of every worker that scan marks (the other
// workers' entries stay nil).
//
// The vertex table is a hash table in the original system, so the task
// generator's scan order carries no ID locality; replicate that with a
// deterministic hash-shuffle. (Consecutive IDs in synthetic graphs share
// neighborhoods, which would otherwise gift the non-LSH queue an
// unrealistically good access pattern.) lsh.HashID is a bijection, so the
// keys never tie and the order is a function of the worker's ID set alone.
func newVertexTables(g *graph.Graph, assign *partition.Assignment, scan []bool) vertexTables {
	type keyed struct {
		key uint64
		id  graph.VertexID
	}
	scans := make([][]keyed, assign.K)
	vt := vertexTables{locals: make([]*localTable, assign.K)}
	for w, on := range scan {
		if on {
			vt.locals[w] = &localTable{}
		}
	}
	vt.dir = newDirectory(g, assign, func(v *graph.Vertex, w int) {
		if lt := vt.locals[w]; lt != nil {
			scans[w] = append(scans[w], keyed{lsh.HashID(uint64(v.ID)), v.ID})
			lt.footprint += v.FootprintBytes()
		}
	})
	for w, lt := range vt.locals {
		if lt == nil {
			continue
		}
		slices.SortFunc(scans[w], func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
		lt.ids = make([]graph.VertexID, len(scans[w]))
		for i, k := range scans[w] {
			lt.ids[i] = k.id
		}
	}
	return vt
}

// allWorkers marks every one of k workers for newVertexTables.
func allWorkers(k int) []bool {
	all := make([]bool, k)
	for i := range all {
		all[i] = true
	}
	return all
}
