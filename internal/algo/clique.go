package algo

import (
	"slices"
	"sync"

	"gminer/internal/graph"
	"gminer/internal/kernels"
)

// cliqueSearch is a Tomita-style branch and bound (the paper cites Tomita
// & Seki [33] and Bomze et al. [5]): pivoted expansion with greedy
// coloring upper bounds, pruned against the best clique size seen so far.
// bound() supplies the externally known best (the global aggregator value
// in the distributed setting), enabling the parallel pruning that §3
// credits for G-thinker's superlinear speedup.
//
// It runs on the bit matrix of the subgraph induced on a task's
// candidates (kernels.BitMatrix), with indices 0..n-1 standing for the
// candidates. Branches are visited in a fixed order — P greedily colored
// in P's own order, classes concatenated by color, the highest color
// expanded first, a child's P kept in its parent's order — so under ties
// the clique found, and the step at which an external bound is read, are
// a function of the input alone (DESIGN.md §12). Every buffer lives on the
// search and is reused across depths, and the search itself is pooled, so
// once its buffers have grown a search allocates only the members it
// returns.
type cliqueSearch struct {
	m      kernels.BitMatrix
	base   int        // |R0|: vertices already fixed in the clique
	best   int        // best |R| found (including base)
	bound  func() int // external best-size hint; may be nil
	steps  int        // nodes expanded, for periodic bound refresh
	r      []int32    // the current clique, one index per depth
	bestR  []int32    // members (indices) of the best clique found locally
	levels []cliqueLevel

	// Coloring scratch, shared by every depth: a depth colors its P before
	// it expands any child. masks holds one row-wide bit mask per color
	// class, and lo/hi the words each class has touched, so a class check
	// ANDs only those words and the masks are cleared in the same span.
	masks  []uint64
	lo, hi []int32
	color  []int32 // 0-based color of each vertex of P, in P's order
	counts []int32
}

// cliqueLevel is one depth's state: its candidate set P (written by the
// parent) and P sorted by color with each vertex's 1-based color.
type cliqueLevel struct {
	p, order, colors []int32
}

var cliqueSearches = sync.Pool{New: func() any { return new(cliqueSearch) }}

// induce loads the subgraph induced on ids into the search's bit matrix.
func (s *cliqueSearch) induce(ids []graph.VertexID, verts []*graph.Vertex) {
	kernels.Induce(&s.m, ids)
	for i, v := range verts {
		if v != nil {
			kernels.InduceRow(&s.m, ids, i, v.Adj)
		}
	}
}

// run searches the whole matrix and returns the best clique size found
// (including base); its members are s.bestR.
func (s *cliqueSearch) run(base int, bound func() int) int {
	s.base, s.best, s.bound, s.steps = base, base, bound, 0
	s.r, s.bestR = s.r[:0], s.bestR[:0]
	if bound != nil {
		if b := bound(); b > s.best {
			s.best = b
		}
	}
	root := s.level(0)
	root.p = slices.Grow(root.p[:0], s.m.Len())
	for i := range s.m.Len() {
		root.p = append(root.p, int32(i))
	}
	s.expand(0)
	return s.best
}

// level returns depth d's state, adding depths as the search first
// reaches them. The pointer is valid until the next call.
func (s *cliqueSearch) level(d int) *cliqueLevel {
	for len(s.levels) <= d {
		s.levels = append(s.levels, cliqueLevel{})
	}
	return &s.levels[d]
}

// expand searches depth d: R = s.r[:d], P = s.levels[d].p.
func (s *cliqueSearch) expand(d int) {
	p := s.levels[d].p
	if len(p) == 0 {
		if s.base+d > s.best {
			s.best = s.base + d
			s.bestR = append(s.bestR[:0], s.r[:d]...)
		}
		return
	}
	// Refresh the external bound occasionally: parallel pruning.
	s.steps++
	if s.bound != nil && s.steps%256 == 0 {
		if b := s.bound(); b > s.best {
			s.best = b
		}
	}
	if s.base+d+len(p) <= s.best {
		return
	}
	// Greedy coloring bound: order p by color, expand highest color first.
	order, colors := s.colorClasses(d)
	s.level(d + 1)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if s.base+d+int(colors[i]) <= s.best {
			return // every remaining vertex has an even smaller bound
		}
		// P for the child: candidates before v in the order ∩ Γ(v).
		row := s.m.Row(int(v))
		np := s.levels[d+1].p[:0]
		for _, u := range order[:i] {
			if row[u>>6]>>(u&63)&1 != 0 {
				np = append(np, u)
			}
		}
		s.levels[d+1].p = np
		s.r = append(s.r[:d], v)
		s.expand(d + 1)
	}
}

// colorClasses greedily colors depth d's P in P's order — a vertex joins
// the first class holding none of its neighbours — and returns P sorted by
// color (each class in P's order) with each vertex's 1-based color; the
// color count bounds the clique size within P.
func (s *cliqueSearch) colorClasses(d int) (order, colors []int32) {
	lv := &s.levels[d]
	p, w := lv.p, s.m.Words()
	s.color = slices.Grow(s.color[:0], len(p))[:len(p)]
	k := 0 // classes opened so far
	for pi, v := range p {
		row := s.m.Row(int(v))
		c := 0
		for ; c < k; c++ {
			lo, hi := int(s.lo[c]), int(s.hi[c])+1
			if !intersects(row[lo:hi], s.masks[c*w+lo:c*w+hi]) {
				break
			}
		}
		x := v >> 6
		if c == k { // open a class; the masks are zero outside a coloring
			if grow := (c+1)*w - len(s.masks); grow > 0 {
				s.masks = append(s.masks, make([]uint64, grow)...)
			}
			if len(s.lo) == c {
				s.lo, s.hi = append(s.lo, 0), append(s.hi, 0)
			}
			s.lo[c], s.hi[c] = x, x
			k++
		}
		s.masks[c*w+int(x)] |= 1 << (v & 63)
		s.lo[c], s.hi[c] = min(s.lo[c], x), max(s.hi[c], x)
		s.color[pi] = int32(c)
	}
	// Counting sort by color: the classes concatenated, each in P's order.
	s.counts = slices.Grow(s.counts[:0], k+1)[:k+1]
	clear(s.counts)
	for _, c := range s.color {
		s.counts[c+1]++
	}
	for c := 1; c <= k; c++ {
		s.counts[c] += s.counts[c-1]
	}
	lv.order = slices.Grow(lv.order[:0], len(p))[:len(p)]
	lv.colors = slices.Grow(lv.colors[:0], len(p))[:len(p)]
	for pi, v := range p {
		c := s.color[pi]
		at := s.counts[c]
		s.counts[c]++
		lv.order[at], lv.colors[at] = v, c+1
	}
	for c := range k {
		clear(s.masks[c*w+int(s.lo[c]) : c*w+int(s.hi[c])+1])
	}
	return lv.order, lv.colors
}

// intersects reports whether two equal-length bit rows share a bit.
func intersects(a, b []uint64) bool {
	b = b[:len(a)]
	for x := range a {
		if a[x]&b[x] != 0 {
			return true
		}
	}
	return false
}

// SearchMaxClique finds the maximum clique of the subgraph induced on ids
// (ascending and duplicate-free; adjacency comes from verts, aligned with
// ids; nil entries are isolated), assuming `base` vertices are already
// fixed in the clique and adjacent to everything in ids. bound, if
// non-nil, supplies an external best-size hint for pruning. Returns the
// best total size and the member IDs drawn from ids (excluding the base),
// or none if no clique beat base and bound. CD, MCF, their sequential
// references and the baseline engines all run this one search, so engine
// comparisons measure the runtime, not the algorithm.
func SearchMaxClique(ids []graph.VertexID, verts []*graph.Vertex, base int, bound func() int) (int, []graph.VertexID) {
	s := cliqueSearches.Get().(*cliqueSearch)
	s.induce(ids, verts)
	best := s.run(base, bound)
	var members []graph.VertexID
	if len(s.bestR) > 0 {
		members = make([]graph.VertexID, len(s.bestR))
		for k, i := range s.bestR {
			members[k] = ids[i]
		}
	}
	s.bound = nil
	cliqueSearches.Put(s)
	return best, members
}
