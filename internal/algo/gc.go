package algo

import (
	"fmt"
	"slices"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/kernels"
	"gminer/internal/wire"
)

// GraphCluster implements GC (§8.1) following the FocusCO algorithm of
// Perozzi et al. [21]: group *focused clusters* from an attributed graph
// based on user preference. The user supplies exemplar attribute vectors;
// dimensions on which the exemplars agree receive high weight (the
// inferred focus attributes). Vertices similar to the exemplar under the
// weighted measure become focus seeds, and each seed grows a cluster by
// iteratively absorbing neighbors that are (a) attribute-similar and
// (b) well connected to the current cluster — "an expensive subgraph
// dynamic update until convergence".
//
// A cluster converges when a round adds no vertex; it is emitted if it
// reaches MinSize, by the smallest focus member only (dedup).
type GraphCluster struct {
	// Exemplars are the user-preference attribute vectors.
	Exemplars [][]int32
	// MinSim is the weighted-similarity threshold for focus membership.
	MinSim float64
	// MinConn is the minimum fraction of the current cluster a joining
	// vertex must neighbor.
	MinConn float64
	// MinSize is the smallest cluster to report.
	MinSize int
	// MaxRounds caps the growth iterations (convergence usually occurs
	// far earlier).
	MaxRounds int

	weights  []float64
	exemplar []int32
}

// NewGraphCluster returns GC configured with exemplars (at least one).
func NewGraphCluster(exemplars [][]int32, minSim, minConn float64, minSize int) *GraphCluster {
	g := &GraphCluster{
		Exemplars: exemplars,
		MinSim:    minSim,
		MinConn:   minConn,
		MinSize:   minSize,
		MaxRounds: 32,
	}
	if g.MinSim <= 0 {
		g.MinSim = 0.8
	}
	if g.MinConn <= 0 {
		g.MinConn = 0.34
	}
	if g.MinSize <= 0 {
		g.MinSize = 4
	}
	g.inferWeights()
	return g
}

// inferWeights learns the focus-attribute weights from the exemplars:
// dimensions where the exemplars agree get weight 1, others get weight
// proportional to agreement (FocusCO learns a Mahalanobis weighting; with
// categorical attributes, agreement frequency is the analogue).
func (g *GraphCluster) inferWeights() {
	if len(g.Exemplars) == 0 {
		return
	}
	dim := len(g.Exemplars[0])
	g.exemplar = append([]int32(nil), g.Exemplars[0]...)
	g.weights = make([]float64, dim)
	for d := 0; d < dim; d++ {
		agree := 0
		for _, ex := range g.Exemplars {
			if d < len(ex) && ex[d] == g.exemplar[d] {
				agree++
			}
		}
		g.weights[d] = float64(agree) / float64(len(g.Exemplars))
	}
}

// Name implements core.Algorithm.
func (*GraphCluster) Name() string { return "gc" }

// focused reports whether attrs passes the weighted focus filter.
func (g *GraphCluster) focused(attrs []int32) bool {
	if len(attrs) == 0 || g.exemplar == nil {
		return false
	}
	return weightedSimilarity(attrs, g.exemplar, g.weights) >= g.MinSim
}

// gcContext carries the growth frontier and bookkeeping between rounds.
type gcContext struct {
	// seed is the vertex this task grew from (dedup key).
	seed graph.VertexID
	// rejected: vertices already evaluated and declined (skip forever).
	rejected []graph.VertexID // sorted
}

// EncodeContext implements core.ContextCodec.
func (*GraphCluster) EncodeContext(w *wire.Writer, ctxAny any) {
	ctx, ok := ctxAny.(*gcContext)
	if !ok {
		wire.EncodeIDs(w, nil)
		w.Varint(-1)
		return
	}
	wire.EncodeIDs(w, ctx.rejected)
	w.Varint(int64(ctx.seed))
}

// DecodeContext implements core.ContextCodec.
func (*GraphCluster) DecodeContext(r *wire.Reader) any {
	ctx := &gcContext{}
	ctx.rejected = wire.DecodeIDs(r)
	ctx.seed = graph.VertexID(r.Varint())
	return ctx
}

// Seed implements core.Algorithm: focus vertices start clusters.
func (g *GraphCluster) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	if !g.focused(v.Attrs) {
		return
	}
	t := &core.Task{Context: &gcContext{seed: v.ID}}
	t.Subgraph.AddVertex(v.ID)
	t.Cands = append([]graph.VertexID(nil), v.Adj...)
	spawn(t)
}

// Update implements core.Algorithm: one growth iteration. Candidates that
// pass the focus filter and the connectivity test join the cluster; their
// unseen neighbors become the next frontier. No joins → converged.
func (g *GraphCluster) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	ctx, ok := t.Context.(*gcContext)
	if !ok {
		return
	}
	members := t.Subgraph.Vertices()
	var joined []*graph.Vertex
	for i, obj := range cands {
		if obj == nil {
			continue
		}
		id := t.Cands[i]
		if _, rejected := slices.BinarySearch(ctx.rejected, id); rejected || t.Subgraph.Has(id) {
			continue
		}
		conn := float64(kernels.Count(obj.Adj, members)) / float64(len(members))
		if g.focused(obj.Attrs) && conn >= g.MinConn {
			joined = append(joined, obj)
		} else {
			ctx.rejected = insertSorted(ctx.rejected, id)
		}
	}
	// The next frontier: the joiners' unseen neighbours. No joiner, nothing
	// unseen or the round cap reached: converged.
	var next []graph.VertexID
	if len(joined) > 0 {
		rows := make([][]graph.VertexID, len(joined))
		for i, obj := range joined {
			t.Subgraph.AddVertex(obj.ID)
			rows[i] = obj.Adj
		}
		if t.Round < g.MaxRounds {
			next = slices.DeleteFunc(kernels.Union(nil, rows), func(id graph.VertexID) bool {
				_, rejected := slices.BinarySearch(ctx.rejected, id)
				return rejected || t.Subgraph.Has(id)
			})
		}
	}
	if len(next) == 0 {
		g.report(t, ctx, env)
		return
	}
	t.Pull(next...)
}

// report emits the converged cluster if large enough. Deduplication: a
// cluster is reported only by the task whose seed is the cluster's
// smallest member (every member is a focus vertex and thus seeded a
// task). Seeds whose growth converged onto a set they do not lead stay
// silent, so each emitted record is unique.
func (g *GraphCluster) report(t *core.Task, ctx *gcContext, env core.Env) {
	if t.Subgraph.Len() < g.MinSize {
		return
	}
	members := t.Subgraph.Vertices()
	if members[0] != ctx.seed {
		return
	}
	env.Emit(fmt.Sprintf("cluster size=%d: %s", len(members), formatIDs(env.External, members)))
}

func insertSorted(ids []graph.VertexID, x graph.VertexID) []graph.VertexID {
	if i, found := slices.BinarySearch(ids, x); !found {
		return slices.Insert(ids, i, x)
	}
	return ids
}
