package cluster

import (
	"cmp"
	"slices"

	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/partition"
)

// directory answers "who owns vertex x, and which vertex is it" for one
// view of the resident graph — g or G⁺ — at one graph epoch: one slot per
// internal ID, so a lookup is one load. Every worker of every job on that
// view shares it read-only; a mutation batch retires it with the epoch,
// since the owners may have moved and new IDs been issued. It stands in for
// Figure 4's per-worker hash tables.
//
// Owner and label are replicated on every worker for every vertex of the
// graph, the labels as the epoch's column (graph.Labels) that the base view's
// directory fills in its one pass. Adjacency and attributes live with the
// owner alone and reach anybody else only by pull — except, on the oriented
// view, the resident set: the forward lists referenced most per byte
// (graph.HotLists), which every worker reads in place. What a worker finds
// without a pull is local's answer and nobody else's; owner keeps naming the
// one worker that seeds and serves the vertex.
type directory struct {
	g      *graph.Graph // the view; records name its vertices by External
	assign *partition.Assignment

	slots  []dirSlot     // by internal ID
	labels *graph.Labels // the epoch's label column; nil on G⁺

	// residentLists and residentBytes size the resident set (reporting, and
	// the workers' memory accounts); residentRows counts the lists the view's
	// resident core holds as bit rows (0: the view offers no core).
	residentLists int
	residentBytes int64
	residentRows  int
}

// dirSlot is 16 bytes, resident mark included.
type dirSlot struct {
	v        *graph.Vertex
	owner    int32
	resident bool // in the view's resident set
}

// newDirectory fills the directory of view g — and, if labelled, the epoch's
// label column — in one pass over its vertices. Only the base view cuts the
// column; G⁺ has the same labels. visit, if non-nil, is shown every owned
// vertex with its owner on the way: whatever else an epoch must learn per
// vertex (the workers' seed scans, a view's footprints) rides this pass
// instead of making its own.
func newDirectory(g *graph.Graph, assign *partition.Assignment, labelled bool, visit func(v *graph.Vertex, owner int)) *directory {
	d := &directory{g: g, assign: assign, slots: make([]dirSlot, g.Slots())}
	if labelled {
		d.labels = graph.NewLabels(g)
	}
	for i := range d.slots {
		d.slots[i].owner = -1
	}
	g.ForEach(func(v *graph.Vertex) bool {
		w := assign.Owner(v.ID)
		d.slots[v.ID] = dirSlot{v: v, owner: int32(w)}
		if d.labels != nil {
			d.labels.Set(v)
		}
		if w >= 0 && visit != nil {
			visit(v, w)
		}
		return true
	})
	return d
}

// owner returns the worker owning id, -1 if nobody does.
func (d *directory) owner(id graph.VertexID) int {
	if uint64(id) < uint64(len(d.slots)) {
		return int(d.slots[id].owner)
	}
	return -1
}

// local returns vertex id if worker self reads it without a pull — it owns
// the vertex, or the view keeps its list resident on every worker — else nil.
func (d *directory) local(id graph.VertexID, self int) *graph.Vertex {
	if uint64(id) < uint64(len(d.slots)) {
		if s := &d.slots[id]; int(s.owner) == self || s.resident {
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
		d.slots[id].resident = true
		for w := range foot {
			if w != owner {
				foot[w] += v.FootprintBytes()
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
// workers' entries stay nil), from an order built for this cut alone.
func newVertexTables(g *graph.Graph, assign *partition.Assignment, scan []bool) vertexTables {
	return new(hashOrder).cut(g, assign, scan)
}

// hashOrder is every slot of a graph in seed-scan order.
//
// The vertex table is a hash table in the original system, so the task
// generator's scan order carries no ID locality; replicate that with a
// deterministic hash-shuffle. (Consecutive IDs in synthetic graphs share
// neighborhoods, which would otherwise gift the non-LSH queue an
// unrealistically good access pattern.) lsh.HashID is a bijection, so the
// keys never tie: a worker's scan is the order of all slots filtered by
// owner, a function of the worker's ID set alone. Internal IDs only grow, so a
// dynamic session keeps one order across graph epochs and merges in only a
// batch's new slots, in place.
type hashOrder struct {
	ids []graph.VertexID // every slot below len(ids), HashID ascending
}

// grow brings the order up to slots: the new slots are sorted on their own
// and merged in from the back, so each old entry moves at most once and the
// order's array is reused.
func (o *hashOrder) grow(slots int) {
	n := len(o.ids)
	if slots <= n {
		return
	}
	type keyed struct {
		key uint64
		id  graph.VertexID
	}
	fresh := make([]keyed, 0, slots-n)
	for id := n; id < slots; id++ {
		fresh = append(fresh, keyed{lsh.HashID(uint64(id)), graph.VertexID(id)})
	}
	slices.SortFunc(fresh, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	o.ids = slices.Grow(o.ids, slots-n)[:slots]
	i, j := n-1, len(fresh)-1
	var key uint64
	if i >= 0 {
		key = lsh.HashID(uint64(o.ids[i]))
	}
	for k := slots - 1; j >= 0; k-- {
		if i >= 0 && key > fresh[j].key {
			o.ids[k], i = o.ids[i], i-1
			if i >= 0 {
				key = lsh.HashID(uint64(o.ids[i]))
			}
		} else {
			o.ids[k], j = fresh[j].id, j-1
		}
	}
}

// cut brings the order up to view g's slots, then cuts g's directory and the
// seed scan of every worker that scan marks: each one's footprint in the
// directory's pass, its IDs by filtering the order by owner.
func (o *hashOrder) cut(g *graph.Graph, assign *partition.Assignment, scan []bool) vertexTables {
	o.grow(g.Slots())
	vt := vertexTables{locals: make([]*localTable, assign.K)}
	sizes := make([]int, assign.K)
	for w, on := range scan {
		if on {
			vt.locals[w] = &localTable{}
		}
	}
	vt.dir = newDirectory(g, assign, true, func(v *graph.Vertex, w int) {
		if lt := vt.locals[w]; lt != nil {
			sizes[w]++
			lt.footprint += v.FootprintBytes()
		}
	})
	for w, lt := range vt.locals {
		if lt != nil {
			lt.ids = make([]graph.VertexID, 0, sizes[w])
		}
	}
	for _, id := range o.ids {
		if w := vt.dir.owner(id); w >= 0 && vt.locals[w] != nil {
			vt.locals[w].ids = append(vt.locals[w].ids, id)
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
