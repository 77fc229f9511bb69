package baseline

import (
	"cmp"
	"slices"
	"sync/atomic"

	"gminer/internal/algo"
	"gminer/internal/graph"
	"gminer/internal/metrics"
)

// BSP is the Giraph-like vertex-centric engine (the "Giraph" rows of
// Tables 1/3, Figure 10); with Dataflow set it models GraphX's dataflow
// overhead. Both run on the mini-Pregel substrate of pregel.go.
type BSP struct {
	Dataflow bool
}

// Name identifies the engine in harness output.
func (b BSP) Name() string {
	if b.Dataflow {
		return "graphx-like"
	}
	return "giraph-like"
}

// tcProgram counts triangles vertex-centrically: in superstep 0 each
// vertex v sends, to every higher neighbor u, the still-higher suffix of
// Γ(v); in superstep 1 each u intersects the received lists with Γ(u).
type tcProgram struct{}

// Compute implements VertexProgram.
func (tcProgram) Compute(ctx *ComputeCtx, v *graph.Vertex, state any, msgs []Message) any {
	switch ctx.Superstep {
	case 0:
		adj := v.Adj
		for i, u := range adj {
			if u <= v.ID {
				continue
			}
			// Neighbors after u (sorted) are the possible third vertices.
			if i+1 < len(adj) {
				ctx.Send(Message{To: u, Src: v.ID, IDs: adj[i+1:]})
			}
		}
		return nil
	default:
		var count int64
		for _, m := range msgs {
			for _, w := range m.IDs {
				if v.HasNeighbor(w) {
					count++
				}
			}
		}
		if count > 0 {
			ctx.Aggregate(count)
		}
		ctx.VoteHalt()
		return nil
	}
}

// TC runs triangle counting.
func (b BSP) TC(g *graph.Graph, cfg Config) (int64, Stats, error) {
	cfg.Dataflow = b.Dataflow
	counters := &metrics.Counters{}
	res, stats, err := runPregel(g, tcProgram{}, cfg, counters)
	stats.CPUUtil = counters.Snapshot().CPUUtil(stats.Elapsed, cfg.defaults().Workers*cfg.defaults().Threads)
	if err != nil {
		return 0, stats, err
	}
	return res.AggSum, stats, nil
}

// mcfProgram finds the maximum clique vertex-centrically. Superstep 0:
// every vertex u broadcasts Γ(u) to its lower neighbors — i.e. the engine
// materializes every 1-hop neighborhood subgraph in message buffers,
// the memory blowup §3 blames for Giraph's OOM in Table 1. Superstep 1:
// each v runs the branch-and-bound search on its materialized
// neighborhood, pruned by a process-wide best (a charitable stand-in for
// Giraph's per-superstep aggregator).
type mcfProgram struct {
	best *atomic.Int64
}

// Compute implements VertexProgram.
func (p mcfProgram) Compute(ctx *ComputeCtx, v *graph.Vertex, state any, msgs []Message) any {
	switch ctx.Superstep {
	case 0:
		maxStore := int64(1)
		if len(v.Adj) > 0 {
			maxStore = 2
		}
		for {
			cur := p.best.Load()
			if cur >= maxStore || p.best.CompareAndSwap(cur, maxStore) {
				break
			}
		}
		for _, u := range v.Adj {
			if u < v.ID {
				ctx.Send(Message{To: u, Src: v.ID, IDs: v.Adj})
			}
		}
		return nil
	default:
		// Materialized neighborhood: adjacency of every higher neighbor,
		// in ID order as the clique search needs (messages arrive in the
		// order the senders' threads ran).
		verts := make([]*graph.Vertex, 0, len(msgs))
		for _, m := range msgs {
			verts = append(verts, &graph.Vertex{ID: m.Src, Adj: m.IDs})
		}
		slices.SortFunc(verts, func(a, b *graph.Vertex) int { return cmp.Compare(a.ID, b.ID) })
		ids := make([]graph.VertexID, len(verts))
		for i, u := range verts {
			ids[i] = u.ID
		}
		if int64(1+len(ids)) > p.best.Load() {
			bound := func() int { return int(p.best.Load()) }
			if b, _ := algo.SearchMaxClique(ids, verts, 1, bound); int64(b) > p.best.Load() {
				for {
					cur := p.best.Load()
					if cur >= int64(b) || p.best.CompareAndSwap(cur, int64(b)) {
						break
					}
				}
			}
		}
		ctx.VoteHalt()
		return nil
	}
}

// MCF runs maximum clique finding; expect ErrOOM on dense graphs with a
// realistic budget (the Table 1 Giraph row).
func (b BSP) MCF(g *graph.Graph, cfg Config) (int, Stats, error) {
	cfg.Dataflow = b.Dataflow
	counters := &metrics.Counters{}
	prog := mcfProgram{best: &atomic.Int64{}}
	_, stats, err := runPregel(g, prog, cfg, counters)
	stats.CPUUtil = counters.Snapshot().CPUUtil(stats.Elapsed, cfg.defaults().Workers*cfg.defaults().Threads)
	if err != nil {
		return 0, stats, err
	}
	return int(prog.best.Load()), stats, nil
}
