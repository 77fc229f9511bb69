package algo

import (
	"slices"
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
//     counted at its lowest (degree, ID) vertex. The seed's list is marked
//     once per task in a bitmap over the view's internal IDs, and every
//     candidate list is one probe per element. When the runtime
//     also offers the view's resident core (kernels.ResidentCore), the task
//     marks its resident candidates by the core's index as well, and a
//     candidate whose list is a bit row is counted a word at a time.
//   - undirected (a runtime that offers no G⁺, such as baseline.Batch):
//     candidates are the neighbors u > v of the undirected graph, probed by
//     binary search — each triangle is counted at its minimum-ID vertex.
//
// TC emits no records and the sum aggregate is order-independent, so the
// two are byte-identical.
type TriangleCount struct {
	core.NoContext

	// bitmaps is set on the oriented path: a task marks ID x as bit x of a
	// pooled bitmap over the view's internal IDs (a *tcScratch), and with a
	// core its resident candidates in the marks.
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
	a.bitmaps, a.core = nil, nil
	return core.Plan{Oriented: a.mineOriented}
}

// mineOriented moves the job onto G⁺. A task's bitmap has one bit per
// internal ID of the view, against the vertex table's pointer per vertex.
func (a *TriangleCount) mineOriented(gplus *graph.Graph, rc *kernels.ResidentCore) {
	a.core = rc
	slots := gplus.Slots() // not gplus: the pool outlives the job's epoch
	a.bitmaps = &sync.Pool{New: func() any {
		sc := &tcScratch{ids: kernels.NewScratch(slots)}
		if rc != nil {
			sc.marks = make([]uint64, rc.Words())
		}
		return sc
	}}
}

// Seed implements core.Algorithm: one task per vertex with at least two
// candidates (fewer cannot close a triangle).
func (a *TriangleCount) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	cands := v.Adj // oriented: the forward list is the candidate set
	if a.bitmaps == nil {
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
// w ∈ Γ⁺(u) (oriented) or u < w and w ∈ Γ(u) (undirected). t.Cands is sorted
// ascending on both paths.
func (a *TriangleCount) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	var count int64
	switch {
	case a.bitmaps == nil:
		for i, u := range cands {
			if u == nil {
				continue
			}
			for _, w := range u.Adj {
				if w <= t.Cands[i] {
					continue
				}
				if _, ok := slices.BinarySearch(t.Cands, w); ok {
					count++
				}
			}
		}
	case a.core == nil:
		sc := a.bitmaps.Get().(*tcScratch)
		kernels.MarkAll(sc.ids, t.Cands)
		for _, u := range cands {
			if u != nil {
				count += int64(kernels.CountMarked(sc.ids, u.Adj))
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
				n = kernels.CountMarked(sc.ids, u.Adj)
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
