package algo

import (
	"sync"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/kernels"
)

// TriangleCount implements TC (§8.1): a light workload using only 1-hop
// neighborhoods. Each vertex v seeds one task whose candidates are a set
// of neighbors guaranteed to cover each triangle exactly once; one update
// round intersects each candidate's adjacency with the candidate set to
// count the triangles through the seed. The global count accumulates
// through a sum aggregator.
//
// There are two paths, and they produce the same total:
//
//   - oriented (the runtime handed the job G⁺, see core.Plan.Oriented): a
//     seed's candidates are its forward list as it stands, and each pulled
//     candidate's forward list is intersected with it — every operand is
//     bounded by the arboricity, not the degree, and each triangle is
//     counted at its lowest (degree, ID) vertex. On a graph whose IDs are
//     dense the seed's list is marked once per task in a bitmap over the ID
//     span and every candidate list is one probe per element; otherwise the
//     two short lists go through the merge/gallop kernels. When the runtime
//     also offers the view's resident core (kernels.ResidentCore), the task
//     marks its resident candidates by the core's index as well, and a
//     candidate whose list is a bit row is counted a word at a time.
//   - generic (the default, and the differential baseline): candidates are
//     the neighbors u > v of the undirected graph, probed by binary search
//     — each triangle is counted at its minimum-ID vertex.
//
// TC emits no records and the sum aggregate is order-independent, so the
// two are byte-identical.
type TriangleCount struct {
	core.NoContext
	// Generic keeps the job on the generic path even under a runtime that
	// offers the oriented graph.
	Generic bool

	oriented bool
	// base and bitmaps are set when the oriented graph's IDs are dense: a
	// task marks ID x as bit x-base of a pooled bitmap over the ID span
	// (a *tcScratch), and with a core its resident candidates in the marks.
	base    graph.VertexID
	bitmaps *sync.Pool
	core    *kernels.ResidentCore
}

// tcScratch is one task's working memory on the bitmap path.
type tcScratch struct {
	ids   *kernels.Scratch
	marks []uint64 // by resident index; nil without a core
}

// NewTriangleCount returns the TC application.
func NewTriangleCount() *TriangleCount { return &TriangleCount{} }

// Name implements core.Algorithm.
func (*TriangleCount) Name() string { return "tc" }

// Aggregator implements core.AggregatorProvider.
func (*TriangleCount) Aggregator() core.Aggregator { return core.SumInt64Aggregator{} }

// Plan implements core.Planner: TC asks for G⁺. It opens a job: whatever
// graph an earlier job of this value ran on, this one is on the undirected
// graph until the runtime offers the view.
func (a *TriangleCount) Plan() core.Plan {
	a.oriented, a.bitmaps, a.core = false, nil, nil
	if a.Generic {
		return core.Plan{}
	}
	return core.Plan{Oriented: a.mineOriented}
}

// mineOriented moves the job onto G⁺. The bitmap is used when the view's IDs
// are dense (graph.DenseIDs: then it is no bigger than the vertex table, one
// bit per ID against one pointer per vertex) — a property of the input, not
// a knob — and so is the resident core, which exists only then.
func (a *TriangleCount) mineOriented(gplus *graph.Graph, rc *kernels.ResidentCore) {
	a.oriented = true
	if base, span, ok := gplus.DenseIDs(); ok {
		a.base, a.core = base, rc
		a.bitmaps = &sync.Pool{New: func() any {
			sc := &tcScratch{ids: kernels.NewScratch(span)}
			if rc != nil {
				sc.marks = make([]uint64, rc.Words())
			}
			return sc
		}}
	}
}

// Seed implements core.Algorithm: one task per vertex with at least two
// candidates (fewer cannot close a triangle).
func (a *TriangleCount) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	cands := v.Adj // oriented: the forward list is the candidate set
	if !a.oriented {
		cands = cands[kernels.SearchSorted(cands, v.ID+1):]
	}
	if len(cands) < 2 {
		return
	}
	t := &core.Task{}
	t.Subgraph.AddVertex(v.ID)
	t.Cands = cands
	spawn(t)
}

// Update implements core.Algorithm: count pairs (u, w) of candidates with
// w ∈ Γ⁺(u) (oriented) or u < w and w ∈ Γ(u) (generic). t.Cands is sorted
// ascending on both paths.
func (a *TriangleCount) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	var count int64
	switch {
	case !a.oriented:
		for i, u := range cands {
			if u == nil {
				continue
			}
			for _, w := range u.Adj {
				if w > t.Cands[i] && containsSorted(t.Cands, w) {
					count++
				}
			}
		}
	case a.bitmaps == nil:
		for _, u := range cands {
			if u != nil {
				count += int64(kernels.Count(u.Adj, t.Cands))
			}
		}
	case a.core == nil:
		sc := a.bitmaps.Get().(*tcScratch)
		kernels.MarkAll(sc.ids, t.Cands, a.base)
		for _, u := range cands {
			if u != nil {
				count += int64(kernels.CountMarked(sc.ids, u.Adj, a.base))
			}
		}
		sc.ids.Reset()
		a.bitmaps.Put(sc)
	default:
		sc := a.bitmaps.Get().(*tcScratch)
		a.core.MarkAll(sc.ids, sc.marks, t.Cands)
		for _, u := range cands {
			if u == nil {
				continue
			}
			n, row := a.core.Count(sc.ids, sc.marks, u.ID)
			if !row {
				n = kernels.CountMarked(sc.ids, u.Adj, a.base)
			}
			count += int64(n)
		}
		sc.ids.Reset()
		clear(sc.marks)
		a.bitmaps.Put(sc)
	}
	if count > 0 {
		env.AggUpdate(count)
	}
	// No Pull: the task dies after one round.
}

// containsSorted reports whether sorted ids contains x.
func containsSorted(ids []graph.VertexID, x graph.VertexID) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ids[mid] < x:
			lo = mid + 1
		case ids[mid] > x:
			hi = mid
		default:
			return true
		}
	}
	return false
}
