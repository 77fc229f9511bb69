package algo

import (
	"slices"
	"strconv"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/kernels"
)

// MaxClique implements MCF (§8.1): maximum clique finding with an
// optimized pruning strategy following Bomze et al. [5] / Tomita & Seki
// [33]. Each vertex v seeds a task over the candidate set
// P = {u ∈ Γ(v) : u > v} (the ordering makes search spaces disjoint);
// after one pull round the task holds the induced subgraph on P and runs
// a branch-and-bound search. A global maximum aggregator shares the best
// clique size across all workers, so every task prunes against the global
// frontier — the "parallel pruning" §3 identifies as the source of
// superlinear speedup.
//
// With SplitThreshold > 0, oversized tasks recursively split into child
// tasks instead of searching locally (the paper's §9 future-work
// "recursive task splitting"), which shrinks the unit of stealing.
type MaxClique struct {
	core.NoContext
	// SplitThreshold splits tasks whose candidate set exceeds it; 0
	// disables splitting.
	SplitThreshold int
	// SplitDepth bounds how deep splitting recurses: a task splits only
	// while |R| <= SplitDepth (default 1: only seed-level tasks split).
	// Unbounded splitting would trade away the branch-and-bound pruning
	// that makes the search tractable.
	SplitDepth int
}

// NewMaxClique returns the MCF application.
func NewMaxClique() *MaxClique { return &MaxClique{} }

// Name implements core.Algorithm.
func (*MaxClique) Name() string { return "mcf" }

// Aggregator implements core.AggregatorProvider: the global
// currently-maximum clique size (§5.1's example aggregator).
func (*MaxClique) Aggregator() core.Aggregator { return core.MaxIntAggregator{} }

// Seed implements core.Algorithm.
func (*MaxClique) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	var cands []graph.VertexID
	for _, u := range v.Adj {
		if u > v.ID {
			cands = append(cands, u)
		}
	}
	t := &core.Task{}
	t.Subgraph.AddVertex(v.ID)
	// A candidate-less task only reports |R|; fold one (necessarily lower)
	// neighbor into R so such tasks report the size-2 clique they witness.
	// Tasks with candidates must keep R = {v}: candidates are only
	// guaranteed adjacent to v.
	if len(cands) == 0 && len(v.Adj) > 0 {
		t.Subgraph.AddVertex(v.Adj[0])
	}
	t.Cands = cands
	spawn(t)
}

// Update implements core.Algorithm. R = t.Subgraph vertices (a clique),
// P = t.Cands (common neighbors of R succeeding the seed).
func (m *MaxClique) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	globalBest := func() int {
		if g, ok := env.AggGlobal().(int); ok {
			return g
		}
		return 0
	}
	r := t.Subgraph.Len()
	env.AggUpdate(r) // R itself is a clique
	// Prune: even taking all of P cannot beat the global best.
	if r+len(t.Cands) <= globalBest() {
		return
	}

	maxSplitDepth := m.SplitDepth
	if maxSplitDepth <= 0 {
		maxSplitDepth = 1
	}
	if m.SplitThreshold > 0 && len(t.Cands) > m.SplitThreshold && r <= maxSplitDepth {
		m.split(t, cands)
		return
	}

	best, members := SearchMaxClique(t.Cands, cands, r, globalBest)
	if best > globalBest() {
		env.AggUpdate(best)
		if len(members) > 0 {
			clique := append(members, t.Subgraph.Vertices()...)
			slices.Sort(clique)
			env.Emit("clique size=" + strconv.Itoa(best) + ": " + formatIDs(env.External, clique))
		}
	}
	// No Pull: the task dies.
}

// split spawns one child task per candidate u_i with
// R' = R ∪ {u_i}, P' = {u_j : j > i} ∩ Γ(u_i); the parent dies. Children
// with empty P' report |R'| directly.
func (m *MaxClique) split(t *core.Task, cands []*graph.Vertex) {
	for i, u := range cands {
		if u == nil {
			continue
		}
		// P' = {u_j : j > i} ∩ Γ(u_i): both operands sorted, so the kernel
		// intersection replaces the per-element HasNeighbor probes.
		np := kernels.Intersect([]graph.VertexID(nil), t.Cands[i+1:], u.Adj)
		child := &core.Task{Subgraph: t.Subgraph.Clone()}
		child.Subgraph.AddVertex(t.Cands[i])
		child.Cands = np // empty: the child just reports |R'|
		t.Spawn(child)
	}
}
