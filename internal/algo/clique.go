package algo

import (
	"slices"
	"sort"

	"gminer/internal/graph"
)

// cliqueGraph is the induced candidate subgraph a clique search runs on:
// vertices 0..n-1 with bitset-free sorted adjacency (indices).
type cliqueGraph struct {
	ids []graph.VertexID // index → vertex ID
	adj [][]int          // index → sorted neighbor indices (within the set)
}

// buildCliqueGraph maps a candidate set and their (global) adjacency lists
// into an induced index graph. verts[i] may be nil (dangling candidate);
// such entries get no edges.
func buildCliqueGraph(ids []graph.VertexID, verts []*graph.Vertex) *cliqueGraph {
	cg := &cliqueGraph{ids: ids, adj: make([][]int, len(ids))}
	index := make(map[graph.VertexID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	for i, v := range verts {
		if v == nil {
			continue
		}
		for _, nb := range v.Adj {
			if j, ok := index[nb]; ok && j != i {
				cg.adj[i] = append(cg.adj[i], j)
			}
		}
		sort.Ints(cg.adj[i])
	}
	return cg
}

// maxCliqueSearch is a Tomita-style branch and bound (the paper cites
// Tomita & Seki [33] and Bomze et al. [5]): pivoted expansion with greedy
// coloring upper bounds, pruned against the best clique size seen so far.
// bound() supplies the externally known best (the global aggregator value
// in the distributed setting), enabling the parallel pruning that §3
// credits for G-thinker's superlinear speedup.
type maxCliqueSearch struct {
	g     *cliqueGraph
	base  int        // |R0|: vertices already fixed in the clique
	best  int        // best |R| found (including base)
	bestR []int      // members (indices) of the best clique found locally
	bound func() int // external best-size hint; may be nil
	steps int        // nodes expanded, for periodic bound refresh
}

// run returns the best clique size found (including base) and its member
// indices (excluding the base vertices).
func (s *maxCliqueSearch) run(candidates []int) (int, []int) {
	s.best = s.base
	if s.bound != nil {
		if b := s.bound(); b > s.best {
			s.best = b
		}
	}
	s.expand(nil, candidates)
	return s.best, s.bestR
}

func (s *maxCliqueSearch) expand(r []int, p []int) {
	if len(p) == 0 {
		if s.base+len(r) > s.best {
			s.best = s.base + len(r)
			s.bestR = append([]int(nil), r...)
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
	if s.base+len(r)+len(p) <= s.best {
		return
	}
	// Greedy coloring bound: order p by color, expand highest color first.
	order, colors := s.color(p)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if s.base+len(r)+colors[i] <= s.best {
			return // every remaining vertex has an even smaller bound
		}
		// P for the child: candidates before v in the order ∩ Γ(v).
		var np []int
		for _, u := range order[:i] {
			if _, ok := slices.BinarySearch(s.g.adj[v], u); ok {
				np = append(np, u)
			}
		}
		s.expand(append(r, v), np)
	}
}

// color greedily colors p (ascending degree order heuristic) and returns
// the vertices sorted by color along with each vertex's color number
// (1-based); color count bounds the clique size within p.
func (s *maxCliqueSearch) color(p []int) (order []int, colors []int) {
	// classes[c] = vertices of color c (mutually non-adjacent).
	var classes [][]int
	for _, v := range p {
		placed := false
		for c := range classes {
			ok := true
			for _, u := range classes[c] {
				if _, adj := slices.BinarySearch(s.g.adj[v], u); adj {
					ok = false
					break
				}
			}
			if ok {
				classes[c] = append(classes[c], v)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{v})
		}
	}
	for c, class := range classes {
		for _, v := range class {
			order = append(order, v)
			colors = append(colors, c+1)
		}
	}
	return order, colors
}

// SearchMaxClique finds the maximum clique of the subgraph induced on ids
// (whose adjacency comes from verts, aligned with ids; nil entries are
// isolated), assuming `base` vertices are already fixed in the clique and
// adjacent to everything in ids. bound, if non-nil, supplies an external
// best-size hint for pruning. Returns the best total size and the member
// IDs drawn from ids (excluding the base). Exported for the baseline
// engines, which run the identical search so engine comparisons measure
// the runtime, not the algorithm.
func SearchMaxClique(ids []graph.VertexID, verts []*graph.Vertex, base int, bound func() int) (int, []graph.VertexID) {
	cg := buildCliqueGraph(ids, verts)
	all := make([]int, len(ids))
	for i := range all {
		all[i] = i
	}
	search := &maxCliqueSearch{g: cg, base: base, bound: bound}
	best, members := search.run(all)
	out := make([]graph.VertexID, len(members))
	for i, m := range members {
		out[i] = cg.ids[m]
	}
	return best, out
}
