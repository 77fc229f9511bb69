package algo

import (
	"slices"
	"strconv"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/wire"
)

// CommunityDetect implements CD (§8.1): find all communities — vertex
// sets that share common attributes and together form a dense subgraph —
// in an attributed graph. Following the paper, the dense-subgraph topology
// is mined with the branch-and-bound clique machinery of Tomita & Seki
// [33], and attribute coherence is enforced by a filtering condition on
// newly added vertex candidates: only neighbors whose attribute
// similarity to the seed reaches MinSim join the candidate set.
//
// Each vertex v seeds a task over P = {u ∈ Γ(v) : u > v, sim(u,v) ≥
// MinSim}; the task pulls P and finds the maximum clique of the induced
// subgraph. Communities of at least MinSize vertices are reported. The
// u > v ordering dedups: a community is reported by its smallest member.
type CommunityDetect struct {
	// MinSim is the attribute-similarity threshold for community
	// membership (fraction of equal attribute dimensions with the seed).
	MinSim float64
	// MinSize is the smallest community size to report (incl. the seed).
	MinSize int
}

// NewCommunityDetect returns CD with the given thresholds (defaults:
// MinSim 0.6, MinSize 4).
func NewCommunityDetect(minSim float64, minSize int) *CommunityDetect {
	if minSim <= 0 {
		minSim = 0.6
	}
	if minSize <= 0 {
		minSize = 4
	}
	return &CommunityDetect{MinSim: minSim, MinSize: minSize}
}

// Name implements core.Algorithm.
func (*CommunityDetect) Name() string { return "cd" }

// Plan implements core.Planner, declaring a seed radius of 1: a task reads its seed, pulls the
// seed's neighbours once and searches the subgraph they induce, and reports
// a community only as its smallest member.
func (*CommunityDetect) Plan() core.Plan { return core.Plan{SeedRadius: 1} }

// EncodeContext implements core.ContextCodec: the context is the seed's
// attribute vector, carried with the task so migrated tasks can still
// apply the similarity filter.
func (*CommunityDetect) EncodeContext(w *wire.Writer, ctx any) {
	attrs, _ := ctx.([]int32)
	w.Int32Slice(attrs)
}

// DecodeContext implements core.ContextCodec.
func (*CommunityDetect) DecodeContext(r *wire.Reader) any {
	return r.Int32Slice()
}

// Seed implements core.Algorithm.
func (a *CommunityDetect) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	if len(v.Attrs) == 0 {
		return
	}
	var cands []graph.VertexID
	for _, u := range v.Adj {
		if u > v.ID {
			cands = append(cands, u)
		}
	}
	if len(cands)+1 < a.MinSize {
		return
	}
	t := &core.Task{Context: append([]int32(nil), v.Attrs...)}
	t.Subgraph.AddVertex(v.ID)
	t.Cands = cands
	spawn(t)
}

// Update implements core.Algorithm: round 1 filters the pulled candidates
// by attribute similarity to the seed (the CD filtering condition) and
// then searches the maximum clique among the survivors.
func (a *CommunityDetect) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	seedID := t.Subgraph.Vertices()[0]
	seedAttrs, _ := t.Context.([]int32)
	// Attribute filter on newly added candidates.
	keepIDs := make([]graph.VertexID, 0, len(cands))
	keepObjs := make([]*graph.Vertex, 0, len(cands))
	for i, obj := range cands {
		if obj == nil || len(obj.Attrs) == 0 {
			continue
		}
		if seedAttrs != nil && attrSimilarity(seedAttrs, obj.Attrs) < a.MinSim {
			continue
		}
		keepIDs = append(keepIDs, t.Cands[i])
		keepObjs = append(keepObjs, obj)
	}
	if len(keepIDs)+1 < a.MinSize {
		return
	}
	best, members := SearchMaxClique(keepIDs, keepObjs, 1, nil)
	if best >= a.MinSize && len(members) > 0 {
		community := append(members, seedID)
		slices.Sort(community)
		env.Emit("community size=" + strconv.Itoa(best) + ": " + formatIDs(env.External, community))
	}
}
