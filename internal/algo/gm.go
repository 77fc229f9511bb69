package algo

import (
	"slices"
	"sync"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/kernels"
	"gminer/internal/plan"
	"gminer/internal/wire"
)

// GraphMatch implements GM (§8.1, Listing 2): count all occurrences
// (homomorphisms) of a rooted labeled tree pattern in the data graph,
// matched level by level as in the paper's Figure 1 example. Each vertex
// carrying the root's label seeds a task; round r matches pattern level r
// against the pulled candidates by label and adjacency to the level above,
// and pulls for round r+1 the neighbourhoods of the matches of *expanding*
// pattern nodes only — nothing is explored below a leaf. After the deepest
// level the count is folded bottom-up into a global sum aggregator.
//
// Matching is homomorphic (two pattern nodes may map to one data vertex),
// as in the sequential oracle RefMatchCount. A leaf's subtree then counts 1
// on every match, so a leaf is recorded as a counter per parent match and
// never as a vertex list (DESIGN.md §12).
type GraphMatch struct {
	P *Pattern
	// Generic forces the scalar HasNeighbor probe, parent by parent, instead
	// of the position-emitting intersection kernels, and pulls a level's
	// whole frontier whatever its labels (the differential baseline).
	// Context and codec are shared by both.
	Generic bool

	// levels[d] is the ModeHom plan's matching schedule of depth d, and
	// expands[p] is node p's TreeStep.Expands from it. Matching stays in ID
	// space (candidates may live on remote partitions), so the schedule and
	// the set kernels are all of the plan GM needs — no CSR. parents[d] and
	// wants[d] are the distinct parent nodes and labels of levels[d].
	levels  [][]plan.TreeStep
	parents [][]int
	wants   [][]int32
	expands []bool
	labelOf func(graph.VertexID) (int32, bool) // nil: nobody offered one
	scratch sync.Pool                          // *gmScratch, one per concurrent Update
}

// NewGraphMatch returns GM for the given pattern (nil: Figure 1 pattern).
func NewGraphMatch(p *Pattern) *GraphMatch {
	if p == nil {
		p = FigurePattern()
	}
	a := &GraphMatch{P: p, levels: plan.TreeSchedule(p.Labels, p.Parent), expands: make([]bool, len(p.Labels))}
	a.parents, a.wants = make([][]int, len(a.levels)), make([][]int32, len(a.levels))
	for d, steps := range a.levels {
		for _, st := range steps {
			a.expands[st.Node] = st.Expands
			if d > 0 && !slices.Contains(a.parents[d], st.Parent) {
				a.parents[d] = append(a.parents[d], st.Parent)
			}
			if !slices.Contains(a.wants[d], st.Label) {
				a.wants[d] = append(a.wants[d], st.Label)
			}
		}
	}
	a.scratch.New = func() any {
		return &gmScratch{base: make([]int, len(p.Labels)), held: make([]kernels.PosTable[graph.VertexID], len(p.Labels))}
	}
	return a
}

// ConfigureKernels implements core.KernelConfigurable. GM ignores the CSR
// (matching runs in ID space against pulled candidates); the flag selects
// between the kernel path and the generic baseline.
func (a *GraphMatch) ConfigureKernels(_ *kernels.CSR, generic bool) {
	a.Generic = a.Generic || generic
}

// PruneByLabel implements core.LabelPruner: with the lookup in hand a round
// leaves out of its pull every ID whose label no step of the next level
// carries. Update reads a candidate's label before anything else and skips
// it on that ground, so the recorded context — and the count — cannot tell.
func (a *GraphMatch) PruneByLabel(labelOf func(graph.VertexID) (int32, bool)) {
	if !a.Generic {
		a.labelOf = labelOf
	}
}

// Name implements core.Algorithm.
func (*GraphMatch) Name() string { return "gm" }

// Aggregator implements core.AggregatorProvider: the global count of
// matched patterns (the paper's sum aggregation over context.count).
func (*GraphMatch) Aggregator() core.Aggregator { return core.SumInt64Aggregator{} }

// gmNode is what a task remembers of one pattern node once its level has
// been matched. An expanding node keeps its matches (ascending) and, for
// match j, the positions parents[offsets[j]:offsets[j+1]] of the adjacent
// matches of its pattern parent; a leaf keeps only hits[i], how many of
// its matches are adjacent to the pattern parent's i-th match.
type gmNode struct {
	hits    []int64
	matches []graph.VertexID
	offsets []int32
	parents []int32
}

// gmContext is the task context: one gmNode per pattern node.
type gmContext struct{ nodes []gmNode }

// gmScratch is Update's working memory, pooled per GraphMatch. held[p] is
// pattern node p's matches loaded for the level its children are matched on.
type gmScratch struct {
	held     []kernels.PosTable[graph.VertexID]
	pos      []int32
	rows     [][]graph.VertexID
	ids      []graph.VertexID
	acc, sum []int64
	base     []int
}

// Seed implements core.Algorithm.
func (a *GraphMatch) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	if v.Label != a.P.Labels[0] {
		return
	}
	ctx := &gmContext{nodes: make([]gmNode, len(a.P.Labels))}
	ctx.nodes[0] = gmNode{matches: []graph.VertexID{v.ID}, offsets: []int32{0, 0}}
	t := &core.Task{Context: ctx}
	t.Subgraph.AddVertex(v.ID)
	switch {
	case a.P.Depth() == 0: // a single-node pattern counts 1 per seed at update time
	case a.labelOf != nil:
		t.Cands = a.usable(nil, v.Adj, 1)
	default:
		t.Cands = v.Adj // shared, never modified (core.Algorithm.Seed)
	}
	spawn(t)
}

// usable appends to dst the IDs of ids that level d has a use for: all but
// those whose label is known and none of the level's steps carries it.
func (a *GraphMatch) usable(dst, ids []graph.VertexID, d int) []graph.VertexID {
	want := a.wants[d]
	for _, id := range ids {
		if label, ok := a.labelOf(id); !ok || slices.Contains(want, label) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Update implements core.Algorithm: match pattern level t.Round against cands.
func (a *GraphMatch) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	ctx, ok := t.Context.(*gmContext)
	switch {
	case ok && a.P.Depth() == 0: // before the round guard: executors start at round 1
		env.AggUpdate(int64(1))
		return
	case !ok || t.Round > a.P.Depth():
		return
	}
	steps := a.levels[t.Round] // rounds start at 1 = pattern depth 1
	for _, st := range steps {
		if n := &ctx.nodes[st.Node]; st.Expands {
			n.matches, n.parents, n.offsets = n.matches[:0], n.parents[:0], append(n.offsets[:0], 0)
		} else {
			n.hits = make([]int64, len(ctx.nodes[st.Parent].matches))
		}
	}
	sc := a.scratch.Get().(*gmScratch)
	sc.rows = sc.rows[:0]
	defer func() { // the pool keeps no adjacency and no context reachable
		clear(sc.rows)
		for _, p := range a.parents[t.Round] {
			sc.held[p].Load(nil, 0)
		}
		a.scratch.Put(sc)
	}()
	if !a.Generic {
		for _, p := range a.parents[t.Round] {
			sc.held[p].Load(ctx.nodes[p].matches, len(cands))
		}
	}
	// t.Cands ascends, so every node's matches come out ascending and
	// duplicate-free, and both probes emit parent positions ascending: the
	// recorded context is identical between the two paths.
	for i, obj := range cands {
		if obj == nil {
			continue
		}
		expands := false
		for _, st := range steps {
			if obj.Label != st.Label {
				continue
			}
			sc.pos = sc.pos[:0]
			if !a.Generic {
				sc.pos = sc.held[st.Parent].IntersectPos(sc.pos, obj.Adj)
			} else {
				for j, pv := range ctx.nodes[st.Parent].matches {
					if obj.HasNeighbor(pv) {
						sc.pos = append(sc.pos, int32(j))
					}
				}
			}
			if len(sc.pos) == 0 {
				continue
			}
			n := &ctx.nodes[st.Node]
			if !st.Expands {
				for _, j := range sc.pos {
					n.hits[j]++
				}
				continue
			}
			n.matches = append(n.matches, t.Cands[i])
			n.parents = append(n.parents, sc.pos...)
			n.offsets = append(n.offsets, int32(len(n.parents)))
			expands = true
		}
		if expands {
			sc.rows = append(sc.rows, obj.Adj)
		}
	}
	for _, st := range steps {
		n := &ctx.nodes[st.Node]
		if len(n.matches) == 0 && !slices.ContainsFunc(n.hits, func(h int64) bool { return h != 0 }) {
			return // a pattern node without a match: the count is 0, die
		}
	}
	if t.Round == a.P.Depth() {
		if count := a.countMatches(ctx, sc); count > 0 {
			env.AggUpdate(count)
		}
		return
	}
	// Next round: the distinct neighbours of this level's expanding matches
	// that the next level has a use for, as far as anybody here can tell.
	sc.ids = kernels.Union(sc.ids[:0], sc.rows)
	if a.labelOf != nil {
		sc.ids = a.usable(sc.ids[:0], sc.ids, t.Round+1)
	}
	t.Pull(sc.ids...)
}

// countMatches folds the recorded levels bottom-up in one pass. With
// acc[p][j] the number of ways to map p's subtree with p on its j-th match,
// acc[p][j] = ∏_{c ∈ children(p)} Σ_{k : j ∈ parents_c(k)} acc[c][k], a leaf
// child's inner sum being hits_c[j]. Children carry higher node indices than
// their parent (BFS order), so descending node order has every acc[c] final
// before it is summed into its parent. The root has one match.
func (a *GraphMatch) countMatches(ctx *gmContext, sc *gmScratch) int64 {
	total := 0
	for p := range ctx.nodes {
		sc.base[p] = total
		total += len(ctx.nodes[p].matches)
	}
	sc.acc = slices.Grow(sc.acc[:0], total)[:total]
	for i := range sc.acc {
		sc.acc[i] = 1
	}
	for p := len(ctx.nodes) - 1; p > 0; p-- {
		n, up := &ctx.nodes[p], a.P.Parent[p]
		upAcc := sc.acc[sc.base[up] : sc.base[up]+len(ctx.nodes[up].matches)]
		if !a.expands[p] {
			for j, h := range n.hits {
				upAcc[j] *= h
			}
			continue
		}
		sc.sum = slices.Grow(sc.sum[:0], len(upAcc))[:len(upAcc)]
		clear(sc.sum)
		for k, v := range sc.acc[sc.base[p] : sc.base[p]+len(n.matches)] {
			for _, j := range n.parents[n.offsets[k]:n.offsets[k+1]] {
				sc.sum[j] += v
			}
		}
		for j, s := range sc.sum {
			upAcc[j] *= s
		}
	}
	return sc.acc[0]
}

// gmFormat leads every encoded context. The map encoding it replaces led with
// a node count (1..plan.MaxTreeNodes), so old bytes fail decode, never miscount.
const gmFormat = 0xB1

// EncodeContext implements core.ContextCodec: the format byte, the node
// count, then per pattern node a leaf's hits or an expanding node's matches,
// per-match parent counts and parent positions — which, the pattern says.
func (a *GraphMatch) EncodeContext(w *wire.Writer, ctxAny any) {
	w.Byte(gmFormat)
	nodes := ctxAny.(*gmContext).nodes // Seed and DecodeContext make no other kind
	w.Uvarint(uint64(len(nodes)))
	for p := range nodes {
		n := &nodes[p]
		if !a.expands[p] {
			w.Uvarint(uint64(len(n.hits)))
			for _, h := range n.hits {
				w.Uvarint(uint64(h))
			}
			continue
		}
		wire.EncodeIDs(w, n.matches)
		for k := range n.matches {
			w.Uvarint(uint64(n.offsets[k+1] - n.offsets[k]))
		}
		for _, j := range n.parents {
			w.Uvarint(uint64(j))
		}
	}
}

// DecodeContext implements core.ContextCodec. Everything countMatches
// indexes with is checked here — node count against the pattern, hits length
// and parent positions against the parent node's matches, matches ascending
// — so a corrupt or foreign context is a wire error, never a panic.
func (a *GraphMatch) DecodeContext(r *wire.Reader) any {
	if f := r.Byte(); r.Err() == nil && f != gmFormat {
		r.Failf("gm context format %#x, want %#x", f, gmFormat)
	}
	if cnt := r.Count(1); r.Err() == nil && cnt != len(a.P.Labels) {
		r.Failf("gm context has %d pattern nodes, pattern has %d", cnt, len(a.P.Labels))
	}
	ctx := &gmContext{nodes: make([]gmNode, len(a.P.Labels))}
	for p := 0; p < len(ctx.nodes) && r.Err() == nil; p++ {
		n, up := &ctx.nodes[p], 0
		if p > 0 {
			up = len(ctx.nodes[a.P.Parent[p]].matches)
		}
		if !a.expands[p] {
			if cnt := r.Count(1); cnt != 0 && cnt != up {
				r.Failf("gm context node %d: %d hits for %d parent matches", p, cnt, up)
			} else if cnt > 0 {
				n.hits = make([]int64, cnt)
				for i := range n.hits {
					n.hits[i] = int64(r.Uvarint())
				}
			}
			continue
		}
		ids := wire.DecodeIDs(r)
		if p == 0 && len(ids) != 1 {
			r.Failf("gm context has %d root matches", len(ids))
		} else if len(ids) == 0 {
			continue
		}
		n.matches, n.offsets = ids, make([]int32, 1, len(ids)+1)
		total := 0
		for k := range ids {
			if k > 0 && ids[k] <= ids[k-1] {
				r.Failf("gm context node %d: matches not ascending", p)
			}
			total += r.Count(1)
			n.offsets = append(n.offsets, int32(total))
		}
		for ; total > 0 && r.Err() == nil; total-- { // grows with the bytes read, not with the prefixes
			if j := r.Uvarint(); j < uint64(up) {
				n.parents = append(n.parents, int32(j))
			} else {
				r.Failf("gm context node %d: parent position %d of %d", p, j, up)
			}
		}
	}
	if r.Err() != nil {
		return nil
	}
	return ctx
}
