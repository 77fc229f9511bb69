package algo

import (
	"fmt"
	"sort"

	"gminer/internal/core"
	"gminer/internal/graph"
)

// QuasiClique implements γ-quasi-clique finding, the "quasi-cliques [1]"
// member of the paper's enumeration category (§4.1): a vertex set S is a
// γ-quasi-clique if every member has at least ⌈γ·(|S|−1)⌉ neighbors
// inside S. Exact enumeration is intractable, so — as in the massive
// quasi-clique detection literature the paper cites — each seed grows a
// quasi-clique greedily inside its 1-hop neighborhood: after one pull
// round the task holds the induced neighborhood subgraph and repeatedly
// admits the candidate with the most internal connections while the
// γ-constraint holds.
//
// Deduplication: a grown set is emitted only by the task seeded at its
// smallest member, so results form a set.
type QuasiClique struct {
	core.NoContext
	// Gamma is the density threshold in (0, 1]; 1.0 degenerates to cliques.
	Gamma float64
	// MinSize is the smallest quasi-clique to report.
	MinSize int
}

// NewQuasiClique returns QC with the given parameters (defaults: γ=0.7,
// MinSize=5).
func NewQuasiClique(gamma float64, minSize int) *QuasiClique {
	if gamma <= 0 || gamma > 1 {
		gamma = 0.7
	}
	if minSize <= 0 {
		minSize = 5
	}
	return &QuasiClique{Gamma: gamma, MinSize: minSize}
}

// Name implements core.Algorithm.
func (*QuasiClique) Name() string { return "qc" }

// Plan implements core.Planner, declaring a seed radius of 1: one pull round over the seed's
// induced neighbourhood, emitted only by the grown set's smallest member.
func (*QuasiClique) Plan() core.Plan { return core.Plan{SeedRadius: 1} }

// Seed implements core.Algorithm: the whole 1-hop neighborhood is the
// candidate pool (no >v restriction — quasi-cliques are not closed under
// minimum-vertex rooting; dedup happens at emission instead).
func (a *QuasiClique) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	if v.Degree()+1 < a.MinSize {
		return
	}
	t := &core.Task{}
	t.Subgraph.AddVertex(v.ID)
	t.Cands = append([]graph.VertexID(nil), v.Adj...)
	spawn(t)
}

// Update implements core.Algorithm: one pull round, then the greedy
// growth entirely in-memory.
func (a *QuasiClique) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	seed := t.Subgraph.Vertices()[0]
	members := a.grow(seed, t.Cands, cands)
	if len(members) < a.MinSize {
		return
	}
	if members[0] != seed {
		return // dedup: only the smallest member's task reports
	}
	env.Emit(fmt.Sprintf("quasiclique gamma=%.2f size=%d: %s", a.Gamma, len(members), formatIDs(members)))
}

// grow runs the deterministic greedy expansion and returns the sorted
// member set. Exposed via RefQuasiCliques for the sequential oracle.
func (a *QuasiClique) grow(seed graph.VertexID, candIDs []graph.VertexID, cands []*graph.Vertex) []graph.VertexID {
	// adjacency among {seed} ∪ candidates, restricted to that set.
	adj := map[graph.VertexID]map[graph.VertexID]bool{seed: {}}
	for _, id := range candIDs {
		adj[seed][id] = true // candidates are Γ(seed)
	}
	for i, obj := range cands {
		if obj == nil {
			continue
		}
		id := candIDs[i]
		m := map[graph.VertexID]bool{seed: true}
		for _, nb := range obj.Adj {
			if _, ok := adj[seed][nb]; ok && nb != id {
				m[nb] = true
			}
		}
		adj[id] = m
	}

	members := []graph.VertexID{seed}
	inSet := map[graph.VertexID]bool{seed: true}
	internal := map[graph.VertexID]int{} // member → degree inside S

	for {
		// Pick the candidate with the most connections into S (ties: the
		// smallest ID, keeping growth deterministic).
		var best graph.VertexID = -1
		bestConn := -1
		for _, id := range candIDs {
			if inSet[id] || adj[id] == nil {
				continue
			}
			conn := 0
			for _, m := range members {
				if adj[id][m] {
					conn++
				}
			}
			if conn > bestConn || (conn == bestConn && best >= 0 && id < best) {
				best, bestConn = id, conn
			}
		}
		if best < 0 || bestConn == 0 {
			break
		}
		// Check the γ-constraint for S ∪ {best}.
		size := len(members) + 1
		need := int(a.Gamma*float64(size-1) + 0.9999999)
		if bestConn < need {
			break // greedy order ⇒ no remaining candidate can satisfy it
		}
		ok := true
		for _, m := range members {
			d := internal[m]
			if adj[best][m] {
				d++
			}
			if d < need {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		for _, m := range members {
			if adj[best][m] {
				internal[m]++
			}
		}
		internal[best] = bestConn
		members = append(members, best)
		inSet[best] = true
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return members
}

// RefQuasiCliques runs the identical growth sequentially from every seed
// and returns the emitted records (sorted).
func RefQuasiCliques(g *graph.Graph, a *QuasiClique) []string {
	var out []string
	g.ForEach(func(v *graph.Vertex) bool {
		if v.Degree()+1 < a.MinSize {
			return true
		}
		candIDs := v.Adj
		cands := make([]*graph.Vertex, len(candIDs))
		for i, id := range candIDs {
			cands[i] = g.Vertex(id)
		}
		members := a.grow(v.ID, candIDs, cands)
		if len(members) >= a.MinSize && members[0] == v.ID {
			out = append(out, fmt.Sprintf("quasiclique gamma=%.2f size=%d: %s", a.Gamma, len(members), formatIDs(members)))
		}
		return true
	})
	sort.Strings(out)
	return out
}
