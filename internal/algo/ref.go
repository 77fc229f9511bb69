package algo

import (
	"fmt"
	"slices"
	"sort"

	"gminer/internal/graph"
	"gminer/internal/kernels"
)

// This file holds optimized sequential implementations of the five
// applications. They serve two purposes: the "Single-thread"
// baseline of Table 1 and the COST comparison of Figure 7, and as
// independent correctness oracles for the distributed algorithms (every
// distributed result is cross-checked against these in tests).

// RefTriangles counts triangles sequentially.
func RefTriangles(g *graph.Graph) int64 {
	var count int64
	g.ForEach(func(v *graph.Vertex) bool {
		// For each u ∈ Γ(v), u > v: count common neighbors w > u.
		for _, u := range v.Adj {
			if u <= v.ID {
				continue
			}
			uv := g.Vertex(u)
			if uv == nil {
				continue
			}
			// Intersect the suffixes of both adjacency lists above u.
			count += int64(countCommonAbove(v.Adj, uv.Adj, u))
		}
		return true
	})
	return count
}

// countCommonAbove counts elements > floor present in both sorted lists
// (the kernel layer's suffix intersection).
func countCommonAbove(a, b []graph.VertexID, floor graph.VertexID) int {
	return kernels.CountAbove(a, b, floor)
}

// RefMaxClique returns the maximum clique size (0 for the empty graph, 1
// for an edgeless graph) using the same Tomita-style search the
// distributed MCF runs per seed, applied per vertex with the v < P
// ordering.
func RefMaxClique(g *graph.Graph) int {
	best := 0
	g.ForEach(func(v *graph.Vertex) bool {
		if best < 1 {
			best = 1
		}
		if len(v.Adj) > 0 && best < 2 {
			best = 2
		}
		var ids []graph.VertexID
		for _, u := range v.Adj {
			if u > v.ID {
				ids = append(ids, u)
			}
		}
		if 1+len(ids) <= best {
			return true
		}
		verts := make([]*graph.Vertex, len(ids))
		for i, id := range ids {
			verts[i] = g.Vertex(id)
		}
		if b, _ := SearchMaxClique(ids, verts, 1, func() int { return best }); b > best {
			best = b
		}
		return true
	})
	return best
}

// RefMatchCount counts tree-pattern homomorphisms with a bottom-up
// dynamic program over the whole graph:
//
//	h(p, v) = ∏_{c ∈ children(p)} Σ_{w ∈ Γ(v), label(w) = label(c)} h(c, w)
func RefMatchCount(g *graph.Graph, p *Pattern) int64 {
	// Process pattern nodes deepest-first.
	order := make([]int, 0, len(p.Labels))
	for d := p.Depth(); d >= 0; d-- {
		order = append(order, p.Levels()[d]...)
	}
	h := make([]map[graph.VertexID]int64, len(p.Labels))
	for _, pn := range order {
		h[pn] = make(map[graph.VertexID]int64)
		g.ForEach(func(v *graph.Vertex) bool {
			if v.Label != p.Labels[pn] {
				return true
			}
			var out int64 = 1
			for _, c := range p.Children(pn) {
				var sum int64
				for _, w := range v.Adj {
					if cnt, ok := h[c][w]; ok {
						sum += cnt
					}
				}
				out *= sum
				if out == 0 {
					break
				}
			}
			if out > 0 {
				h[pn][v.ID] = out
			}
			return true
		})
	}
	var total int64
	for _, cnt := range h[0] {
		total += cnt
	}
	return total
}

// RefCommunities runs the CD logic sequentially and returns the emitted
// records (sorted), mirroring CommunityDetect exactly.
func RefCommunities(g *graph.Graph, a *CommunityDetect) []string {
	var out []string
	g.ForEach(func(v *graph.Vertex) bool {
		if len(v.Attrs) == 0 {
			return true
		}
		var cands []graph.VertexID
		for _, u := range v.Adj {
			if u > v.ID {
				cands = append(cands, u)
			}
		}
		if len(cands)+1 < a.MinSize {
			return true
		}
		var keepIDs []graph.VertexID
		var keepObjs []*graph.Vertex
		for _, id := range cands {
			obj := g.Vertex(id)
			if obj == nil || len(obj.Attrs) == 0 {
				continue
			}
			if attrSimilarity(v.Attrs, obj.Attrs) < a.MinSim {
				continue
			}
			keepIDs = append(keepIDs, id)
			keepObjs = append(keepObjs, obj)
		}
		if len(keepIDs)+1 < a.MinSize {
			return true
		}
		best, members := SearchMaxClique(keepIDs, keepObjs, 1, nil)
		if best >= a.MinSize && len(members) > 0 {
			community := append(members, v.ID)
			slices.Sort(community)
			out = append(out, fmt.Sprintf("community size=%d: %s", best, formatIDs(g.External, community)))
		}
		return true
	})
	sort.Strings(out)
	return out
}

// RefClusters runs the GC growth sequentially from every focus seed with
// identical batch semantics to GraphCluster and returns the emitted
// records (sorted).
func RefClusters(g *graph.Graph, a *GraphCluster) []string {
	var out []string
	g.ForEach(func(v *graph.Vertex) bool {
		if !a.focused(v.Attrs) {
			return true
		}
		members := []graph.VertexID{v.ID}
		memberSet := map[graph.VertexID]bool{v.ID: true}
		rejected := map[graph.VertexID]bool{}
		frontier := append([]graph.VertexID(nil), v.Adj...)
		for round := 1; round <= a.MaxRounds; round++ {
			var joined []*graph.Vertex
			for _, id := range frontier {
				if memberSet[id] || rejected[id] {
					continue
				}
				obj := g.Vertex(id)
				if obj == nil {
					continue
				}
				conn := float64(kernels.Count(obj.Adj, members)) / float64(len(members))
				if a.focused(obj.Attrs) && conn >= a.MinConn {
					joined = append(joined, obj)
				} else {
					rejected[id] = true
				}
			}
			if len(joined) == 0 {
				break
			}
			nextSet := map[graph.VertexID]bool{}
			for _, obj := range joined {
				members = insertSorted(members, obj.ID)
				memberSet[obj.ID] = true
				for _, nb := range obj.Adj {
					nextSet[nb] = true
				}
			}
			frontier = frontier[:0]
			for id := range nextSet {
				if !memberSet[id] && !rejected[id] {
					frontier = append(frontier, id)
				}
			}
			if len(frontier) == 0 {
				break
			}
			sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		}
		if len(members) >= a.MinSize && members[0] == v.ID {
			out = append(out, fmt.Sprintf("cluster size=%d: %s", len(members), formatIDs(g.External, members)))
		}
		return true
	})
	sort.Strings(out)
	return out
}
