package algo

import (
	"sort"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/kernels"
)

// SeqRun executes an Algorithm sequentially over the whole graph with
// direct memory access — no partitions, no pulls, no queues. This is the
// "optimized single-threaded implementation" baseline of Table 1 and the
// COST comparison (Figure 7) for algorithms whose reference oracle uses a
// different algorithmic strategy (e.g. GM's bottom-up dynamic program):
// COST must compare the system against a single-threaded version of the
// *same* computation, or it measures the algorithm, not the system.
type SeqResult struct {
	Records   []string
	AggGlobal any
	Tasks     int64
}

// SeqRun runs algoImpl to completion over g, honouring its plan
// (core.PlanOf) the way the cluster runtime does — G⁺ and that view's
// resident core, both derived here as the cluster derives them, and the
// label column — so the two compare as engines.
func SeqRun(g *graph.Graph, algoImpl core.Algorithm) *SeqResult {
	return SeqRunSeeds(g, algoImpl, nil)
}

// SeqRunSeeds is SeqRun seeded at the given vertices alone, the reference
// for a seed-restricted job (cluster.JobOptions.Seeds): IDs g does not hold
// are skipped, and nil seeds every vertex.
func SeqRunSeeds(g *graph.Graph, algoImpl core.Algorithm, seeds []graph.VertexID) *SeqResult {
	p := core.PlanOf(algoImpl)
	if p.Labels != nil {
		p.Labels(g.LabelColumn())
	}
	if p.Oriented != nil && g.Frozen() {
		gplus := graph.Orient(g)
		ids, refs := graph.HotLists(gplus, graph.ResidentBudgetPerVertex*int64(g.NumVertices()))
		p.Oriented(gplus, kernels.NewResidentCore(gplus, ids, refs))
		g = gplus
	}
	env := &seqEnv{g: g}
	if ap, ok := algoImpl.(core.AggregatorProvider); ok {
		env.agg = ap.Aggregator()
		env.partial = env.agg.Zero()
	}
	var queue []*core.Task
	spawn := func(t *core.Task) { queue = append(queue, t) }
	if seeds == nil {
		g.ForEach(func(v *graph.Vertex) bool {
			algoImpl.Seed(v, spawn)
			return true
		})
	}
	for _, id := range seeds {
		if v := g.Vertex(id); v != nil {
			algoImpl.Seed(v, spawn)
		}
	}
	var done int64
	var cands []*graph.Vertex // reused every round (core.Algorithm.Update)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for {
			if t.Round == 0 {
				t.Round = 1
			}
			cands = cands[:0]
			for _, id := range t.Cands {
				cands = append(cands, g.Vertex(id))
			}
			algoImpl.Update(t, cands, env)
			next, children := t.TakeTransition()
			queue = append(queue, children...)
			if next == nil {
				done++
				break
			}
			t.Advance(next)
		}
	}
	sort.Strings(env.records)
	return &SeqResult{Records: env.records, AggGlobal: env.partial, Tasks: done}
}

// seqEnv is the trivial single-threaded core.Env.
type seqEnv struct {
	g       *graph.Graph
	agg     core.Aggregator
	partial any
	records []string
}

// WorkerID implements core.Env.
func (*seqEnv) WorkerID() int { return 0 }

// NumWorkers implements core.Env.
func (*seqEnv) NumWorkers() int { return 1 }

// Emit implements core.Env.
func (e *seqEnv) Emit(record string) { e.records = append(e.records, record) }

// AggUpdate implements core.Env.
func (e *seqEnv) AggUpdate(v any) {
	if e.agg != nil {
		e.partial = e.agg.Add(e.partial, v)
	}
}

// AggGlobal implements core.Env.
func (e *seqEnv) AggGlobal() any { return e.partial }

// LocalVertex implements core.Env.
func (e *seqEnv) LocalVertex(id graph.VertexID) *graph.Vertex { return e.g.Vertex(id) }

// External implements core.Env.
func (e *seqEnv) External(id graph.VertexID) graph.VertexID { return e.g.External(id) }
