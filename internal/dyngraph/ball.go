package dyngraph

import (
	"slices"

	"gminer/internal/graph"
)

// Ball returns, ascending, the vertices of g within r hops of any of ids —
// the ids g holds (distance 0) included, the ones it does not skipped.
//
// This is the reach of a mutation batch over seed-local mining
// (core.LocalMiner): a seed of radius r reads the subgraph induced on the
// vertices within r hops of it, so its records can differ between G and the
// mutated G' only if something inside that subgraph changed, in G or in G'.
// Everything a batch changes has a vertex of D = Batch.DirtyIDs on it:
//
//   - a vertex created, deleted or relabelled is itself in D;
//   - an edge added by the batch has BOTH endpoints in D (add-edge names
//     them), and so has an edge del-edge removes;
//   - the one change with a single dirty end is an edge {x, n} dropped by
//     del-vertex x with n unnamed — and that edge exists in G, because an
//     edge the batch itself added would have n in D.
//
// So the changed thing lies within r hops of the seed and carries a d ∈ D:
// the seed is in Ball(G, D, r) or Ball(G', D, r). And the second ball adds
// nothing the caller does not already have,
//
//	Ball(G', D, r) ⊆ Ball(G, D, r) ∪ D
//
// for on a G'-path of at most r hops from D to x, the stretch after the
// last dirty vertex leaves it over an edge with a non-dirty end and then
// runs between non-dirty vertices: every edge of it is unchanged, hence in
// G. Every seed whose r-hop read set differs between G and G' is therefore
// in B = Ball(G, D, r) ∪ D, computed on the old graph before the batch lands
// (TestBallCoversChangedSeeds).
func Ball(g *graph.Graph, ids []graph.VertexID, r int) []graph.VertexID {
	seen := make(map[graph.VertexID]struct{}, len(ids))
	var out []graph.VertexID
	for _, id := range ids {
		if _, dup := seen[id]; !dup && g.Has(id) {
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	for frontier := out; r > 0 && len(frontier) > 0; r-- {
		first := len(out)
		for _, id := range frontier {
			for _, nb := range g.Vertex(id).Adj {
				if _, dup := seen[nb]; !dup && g.Has(nb) {
					seen[nb] = struct{}{}
					out = append(out, nb)
				}
			}
		}
		frontier = out[first:]
	}
	slices.Sort(out)
	return out
}
