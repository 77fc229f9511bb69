package partition

import (
	"fmt"
	"sort"

	"gminer/internal/graph"
)

// Blocked is a block-decomposable deterministic greedy partitioner built
// for dynamic graphs. Blocks are fixed ID ranges (block = id >> Shift)
// instead of BDG's BFS coloring, so block membership of a vertex never
// depends on the rest of the graph; the per-block aggregates (sizes and
// cross-block edge counts) that drive the greedy placement are maintainable
// in O(ops) under mutation. Placement itself is the same Eq. (1) rule as
// BDG — j = argmax_i |P(i) ∩ Γ(B)| · (1 − |P(i)|/C) — evaluated on block
// aggregates, so re-running it after a mutation batch costs O(#blocks ·
// k + #cross-block-pairs), independent of |V|.
//
// The crucial property for the dynamic path: Partition from scratch and an
// incrementally maintained BlockAgg produce *identical* assignments for
// the same graph, because both reduce to Assign on the same aggregate
// values (all-integer accumulation, no iteration-order-dependent float
// sums).
type Blocked struct {
	// Shift selects the block granularity: vertices u and w share a block
	// iff u>>Shift == w>>Shift. Default 8 (256-ID ranges).
	Shift uint
}

// DefaultBlockShift is the block granularity used when Blocked.Shift is 0.
const DefaultBlockShift uint = 8

func (b Blocked) shift() uint {
	if b.Shift == 0 {
		return DefaultBlockShift
	}
	return b.Shift
}

// Name implements Partitioner.
func (Blocked) Name() string { return "blocked" }

// Partition implements Partitioner.
func (b Blocked) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	agg := CollectBlocks(g, b.shift())
	return agg.Assign(g, k, agg.Place(k)), nil
}

// BlockAgg holds the per-block aggregates the Blocked greedy needs: block
// sizes and symmetric cross-block edge counts. It is a pure function of
// the graph (CollectBlocks) and is incrementally maintainable: apply
// AddVertex/DelVertex/AddEdge/DelEdge mirroring each graph mutation and
// the aggregate stays equal to a from-scratch CollectBlocks of the mutated
// graph. Entries that reach zero are deleted so the map *contents* match
// exactly, not just the values.
type BlockAgg struct {
	Shift uint
	Size  map[int64]int             // block → #vertices (no zero entries)
	Edges map[int64]map[int64]int64 // block → neighbor block → edge count, stored both directions
}

// NewBlockAgg returns an empty aggregate with the given shift.
func NewBlockAgg(shift uint) *BlockAgg {
	return &BlockAgg{
		Shift: shift,
		Size:  make(map[int64]int),
		Edges: make(map[int64]map[int64]int64),
	}
}

// CollectBlocks computes the aggregate of g from scratch.
func CollectBlocks(g *graph.Graph, shift uint) *BlockAgg {
	a := NewBlockAgg(shift)
	g.ForEach(func(v *graph.Vertex) bool {
		a.AddVertex(v.ID)
		for _, nb := range v.Adj {
			if nb > v.ID { // each undirected edge once
				a.AddEdge(v.ID, nb)
			}
		}
		return true
	})
	return a
}

// Block returns the block of vertex id.
func (a *BlockAgg) Block(id graph.VertexID) int64 { return int64(id) >> a.Shift }

// AddVertex records vertex id joining the graph.
func (a *BlockAgg) AddVertex(id graph.VertexID) { a.Size[a.Block(id)]++ }

// DelVertex records vertex id leaving the graph (its incident edges must
// be removed separately via DelEdge).
func (a *BlockAgg) DelVertex(id graph.VertexID) {
	b := a.Block(id)
	if a.Size[b] <= 1 {
		delete(a.Size, b)
	} else {
		a.Size[b]--
	}
}

// AddEdge records the undirected edge {u, w} joining the graph.
func (a *BlockAgg) AddEdge(u, w graph.VertexID) { a.bumpEdge(a.Block(u), a.Block(w), 1) }

// DelEdge records the undirected edge {u, w} leaving the graph.
func (a *BlockAgg) DelEdge(u, w graph.VertexID) { a.bumpEdge(a.Block(u), a.Block(w), -1) }

func (a *BlockAgg) bumpEdge(bu, bw int64, d int64) {
	if bu == bw {
		return // intra-block edges never contribute to Eq. (1) overlap
	}
	a.bumpDir(bu, bw, d)
	a.bumpDir(bw, bu, d)
}

func (a *BlockAgg) bumpDir(from, to int64, d int64) {
	m := a.Edges[from]
	if m == nil {
		m = make(map[int64]int64)
		a.Edges[from] = m
	}
	if m[to] += d; m[to] <= 0 {
		delete(m, to)
		if len(m) == 0 {
			delete(a.Edges, from)
		}
	}
}

// NumVertices returns the total vertex count across all blocks.
func (a *BlockAgg) NumVertices() int {
	total := 0
	for _, s := range a.Size {
		total += s
	}
	return total
}

// Place places every block on a worker with the deterministic greedy rule
// of Eq. (1) and returns block → worker. The result is a pure function of
// the aggregate values and k: block order is (size desc, block ID asc) and
// overlap accumulates in integers, so map iteration order cannot leak into
// the placement.
func (a *BlockAgg) Place(k int) map[int64]int {
	type blk struct {
		id   int64
		size int
	}
	blocks := make([]blk, 0, len(a.Size))
	total := 0
	for id, size := range a.Size {
		blocks = append(blocks, blk{id, size})
		total += size
	}
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].size != blocks[j].size {
			return blocks[i].size > blocks[j].size
		}
		return blocks[i].id < blocks[j].id
	})

	owner := make(map[int64]int, len(blocks))
	partSize := make([]int, k)
	capacity := float64(total) / float64(k)
	if capacity < 1 {
		capacity = 1
	}
	overlap := make([]int64, k)
	for _, b := range blocks {
		// overlap[i] = |P(i) ∩ Γ(B)| over already-placed blocks, counted
		// as cross-block edge multiplicity exactly like BDG counts
		// per-member neighbor occurrences.
		for i := range overlap {
			overlap[i] = 0
		}
		for nb, cnt := range a.Edges[b.id] {
			if w, ok := owner[nb]; ok {
				overlap[w] += cnt
			}
		}
		best, bestScore := 0, -1.0
		for i := 0; i < k; i++ {
			score := float64(overlap[i]) * (1 - float64(partSize[i])/capacity)
			if score > bestScore || (score == bestScore && partSize[i] < partSize[best]) {
				best, bestScore = i, score
			}
		}
		if float64(partSize[best]) >= capacity {
			least := 0
			for i := 1; i < k; i++ {
				if partSize[i] < partSize[least] {
					least = i
				}
			}
			best = least
		}
		owner[b.id] = best
		partSize[best] += b.size
	}
	return owner
}

// Assign returns the assignment of g's vertices that the block placement
// place (Place of this aggregate) makes: each vertex goes where its block
// went.
func (a *BlockAgg) Assign(g *graph.Graph, k int, place map[int64]int) *Assignment {
	as := newAssignment(g, k)
	g.ForEach(func(v *graph.Vertex) bool {
		as.owner[v.ID] = int32(place[a.Block(v.ID)])
		return true
	})
	return as
}
