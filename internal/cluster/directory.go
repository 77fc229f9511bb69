package cluster

import (
	"sort"

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
// Owner and label are the two columns replicated on every worker for every
// vertex of the graph; adjacency and attributes live with the owner alone
// and reach anybody else only by pull.
type directory struct {
	assign *partition.Assignment

	base  graph.VertexID
	slots []dirSlot // dense arm; nil on the sparse one

	tables []map[graph.VertexID]*graph.Vertex // sparse arm, by worker
}

// dirSlot is 16 bytes with or without the label: it sits in the padding
// after owner.
type dirSlot struct {
	v     *graph.Vertex
	owner int32
	label int32
}

func newDirectory(g *graph.Graph, assign *partition.Assignment) *directory {
	d := &directory{assign: assign}
	if base, span, ok := g.DenseIDs(); ok {
		d.fillDense(g, base, span)
	} else {
		d.fillSparse(g)
	}
	return d
}

func (d *directory) fillDense(g *graph.Graph, base graph.VertexID, span int) {
	d.base, d.slots = base, make([]dirSlot, span)
	for i := range d.slots {
		d.slots[i].owner = -1
	}
	g.ForEach(func(v *graph.Vertex) bool {
		d.slots[v.ID-base] = dirSlot{v: v, owner: int32(d.assign.Owner(v.ID)), label: v.Label}
		return true
	})
}

func (d *directory) fillSparse(g *graph.Graph) {
	d.tables = make([]map[graph.VertexID]*graph.Vertex, d.assign.K)
	for i, n := range d.assign.Sizes() {
		d.tables[i] = make(map[graph.VertexID]*graph.Vertex, n)
	}
	g.ForEach(func(v *graph.Vertex) bool {
		if w := d.assign.Owner(v.ID); w >= 0 {
			d.tables[w][v.ID] = v
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

// local returns vertex id if worker self owns it, else nil.
func (d *directory) local(id graph.VertexID, self int) *graph.Vertex {
	if d.slots == nil {
		return d.tables[self][id]
	}
	if i := uint64(id - d.base); i < uint64(len(d.slots)) && int(d.slots[i].owner) == self {
		return d.slots[i].v
	}
	return nil
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
// per job, and a mutation batch rebuilds only the workers it touched.
type localTable struct {
	ids       []graph.VertexID
	footprint int64
}

// buildLocalTable scans worker id's partition of the shared frozen graph.
func buildLocalTable(g *graph.Graph, assign *partition.Assignment, id int) *localTable {
	lt := &localTable{ids: assign.Local(g, id)}
	for _, vid := range lt.ids {
		lt.footprint += g.Vertex(vid).FootprintBytes()
	}
	// The vertex table is a hash table in the original system, so the task
	// generator's scan order carries no ID locality; replicate that with a
	// deterministic hash-shuffle. (Consecutive IDs in synthetic graphs
	// share neighborhoods, which would otherwise gift the non-LSH queue an
	// unrealistically good access pattern.)
	sort.Slice(lt.ids, func(i, j int) bool {
		return lsh.HashID(uint64(lt.ids[i])) < lsh.HashID(uint64(lt.ids[j]))
	})
	return lt
}
