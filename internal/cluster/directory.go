package cluster

import (
	"cmp"
	"slices"

	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/partition"
)

// directory answers "who owns vertex x, and which vertex is it" for one
// view of the resident graph — g or G⁺ — at one graph epoch, reading the
// epoch's columns in place (the assignment's owners, the view's vertex
// table), copying neither. Every worker of every job on that view shares it
// read-only; a mutation batch retires it with the epoch. It stands in for
// Figure 4's per-worker hash tables.
//
// Owner and label (graph.Labels, which the base view's cut fills) are
// replicated on every worker for every vertex. Adjacency and attributes live
// with the owner alone and reach anybody else only by pull — except, on the
// oriented view, the resident set: the forward lists referenced most per byte
// (graph.HotLists), which every worker reads in place. What a worker finds
// without a pull is local's answer; owner keeps naming the one worker that
// seeds and serves the vertex.
type directory struct {
	g        *graph.Graph    // the view; records name its vertices by External
	verts    []*graph.Vertex // g's vertex table
	owners   []int32         // the assignment's owner column
	resident []bool          // the resident set's marks, by internal ID; nil on g
	labels   *graph.Labels   // the epoch's label column; nil on G⁺

	// residentLists and residentBytes size the resident set (reporting, and
	// the workers' memory accounts); residentRows counts the lists the view's
	// resident core holds as bit rows (0: the view offers no core).
	residentLists int
	residentBytes int64
	residentRows  int
}

// newDirectory returns the directory of view g under assign, a partition of
// g's epoch: owners is never longer than verts, since slots only grow.
func newDirectory(g *graph.Graph, assign *partition.Assignment) *directory {
	return &directory{g: g, verts: g.Table(), owners: assign.Owners()}
}

// owner returns the worker owning id, -1 if nobody does.
func (d *directory) owner(id graph.VertexID) int {
	if uint64(id) < uint64(len(d.owners)) {
		return int(d.owners[id])
	}
	return -1
}

// local returns vertex id if worker self reads it without a pull — it owns
// the vertex, or the view keeps its list resident on every worker — else nil.
func (d *directory) local(id graph.VertexID, self int) *graph.Vertex {
	if uint64(id) < uint64(len(d.owners)) && (int(d.owners[id]) == self || d.resident != nil && d.resident[id]) {
		return d.verts[id]
	}
	return nil
}

// keepResident makes the lists of ids — vertices of the directory's view —
// resident on every worker, and charges each worker's account in foot for
// the ones it does not own. It completes a directory under construction:
// once workers read the directory it never changes.
func (d *directory) keepResident(ids []graph.VertexID, foot []int64) {
	d.resident = make([]bool, len(d.verts))
	for _, id := range ids {
		owner, bytes := d.owner(id), d.verts[id].FootprintBytes()
		d.resident[id] = true
		for w := range foot {
			if w != owner {
				foot[w] += bytes
			}
		}
		d.residentBytes += bytes
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
// seed order and their footprint. Read-only after build, a Session shares it
// across every job's worker i, and a mutation batch rebuilds only the workers
// it touched. The oriented view's tables share the base tables' ids and differ
// only in footprint.
type localTable struct {
	ids       []graph.VertexID
	footprint int64
}

// newVertexTables cuts view g's directory and the seed scan of every worker
// that scan marks (the other workers' entries stay nil), from an order built
// for this cut alone.
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
// seed scan of every worker that scan marks. Its one pass over g fills the
// epoch's label column and sums each scanned worker's footprint; the IDs
// come from filtering the order by owner.
func (o *hashOrder) cut(g *graph.Graph, assign *partition.Assignment, scan []bool) vertexTables {
	o.grow(g.Slots())
	vt := vertexTables{dir: newDirectory(g, assign), locals: make([]*localTable, assign.K)}
	vt.dir.labels = graph.NewLabels(g)
	sizes := make([]int, assign.K)
	for w, on := range scan {
		if on {
			vt.locals[w] = &localTable{}
		}
	}
	g.ForEach(func(v *graph.Vertex) bool {
		vt.dir.labels.Set(v)
		if w := vt.dir.owner(v.ID); w >= 0 && vt.locals[w] != nil {
			sizes[w]++
			vt.locals[w].footprint += v.FootprintBytes()
		}
		return true
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
