package algo

import (
	"cmp"
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
// carrying the root's label seeds a task, and after the deepest level the
// count is folded bottom-up into a global sum aggregator.
//
// Offered the runtime's label column (core.Plan.Labels), GM matches
// parent-major: a level is read off its parents' own adjacency lists — x
// matches step s under parent match m iff x ∈ adj(m) and the column says x
// carries s's label, the very walk RefMatchCount makes. The seed matches
// level 1 off the root's list and round r matches level r+1 off the pulled
// lists of level r's expanding matches, so the only vertices a task pulls are
// matches whose children are still to be matched: never a leaf, never the
// deepest level. A seed some level-1 node finds no match for counts 0 and is
// not spawned.
//
// Without the column — the Generic baseline — GM matches candidate-major, as
// the paper does: round r pulls the neighbourhoods of level r−1's expanding
// matches and keeps each candidate adjacent to a parent match, asking the
// candidate's own list (which is the parents' answer only because adjacency
// is symmetric). Both arms record one context and count it one way.
//
// Matching is homomorphic (two pattern nodes may map to one data vertex),
// as in the sequential oracle RefMatchCount. A leaf's subtree then counts 1
// on every match, so a leaf is recorded as a counter per parent match and
// never as a vertex list (DESIGN.md §12).
type GraphMatch struct {
	P *Pattern
	// Generic keeps GM candidate-major whatever it is offered (the
	// differential baseline).
	Generic bool

	// levels[d] is the ModeHom plan's matching schedule of depth d, and
	// expands[p] is node p's TreeStep.Expands from it. Matching stays in ID
	// space (matches may live on remote partitions), so the schedule and the
	// set kernels are all of the plan GM needs — no CSR. parents[d] lists the
	// distinct parent nodes of levels[d], kids[p] the steps under node p.
	levels  [][]plan.TreeStep
	parents [][]int
	kids    [][]plan.TreeStep
	expands []bool
	labelOf func(graph.VertexID) (int32, bool) // nil: candidate-major
	scratch sync.Pool                          // *gmScratch, one per concurrent Seed or Update
}

// NewGraphMatch returns GM for the given pattern (nil: Figure 1 pattern).
func NewGraphMatch(p *Pattern) *GraphMatch {
	if p == nil {
		p = FigurePattern()
	}
	a := &GraphMatch{P: p, levels: plan.TreeSchedule(p.Labels, p.Parent), expands: make([]bool, len(p.Labels))}
	a.parents, a.kids = make([][]int, len(a.levels)), make([][]plan.TreeStep, len(p.Labels))
	for d, steps := range a.levels {
		for _, st := range steps {
			a.expands[st.Node] = st.Expands
			if d > 0 {
				a.kids[st.Parent] = append(a.kids[st.Parent], st)
				if !slices.Contains(a.parents[d], st.Parent) {
					a.parents[d] = append(a.parents[d], st.Parent)
				}
			}
		}
	}
	a.expands[0] = true // the root keeps its one match, children or not
	a.scratch.New = func() any {
		return &gmScratch{pairs: make([][]gmPair, len(p.Labels)), base: make([]int, len(p.Labels))}
	}
	return a
}

// Plan implements core.Planner: GM asks for the label column, and with it in
// hand matches parent-major, reading a neighbour's label from it instead of
// pulling the neighbour. Until the runtime offers it the job is
// candidate-major.
func (a *GraphMatch) Plan() core.Plan {
	a.labelOf = nil
	if a.Generic {
		return core.Plan{}
	}
	return core.Plan{Labels: func(labelOf func(graph.VertexID) (int32, bool)) { a.labelOf = labelOf }}
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

// gmPair says vertex id matches an expanding node under its parent's
// match at position parent.
type gmPair struct {
	id     graph.VertexID
	parent int32
}

// gmScratch is the working memory of one Seed or Update, pooled per
// GraphMatch. pairs[p] collects expanding node p's pairs while its level is
// matched.
type gmScratch struct {
	pairs    [][]gmPair
	rows     [][]graph.VertexID
	ids      []graph.VertexID
	acc, sum []int64
	base     []int
}

// putScratch returns sc to the pool holding no adjacency list.
func (a *GraphMatch) putScratch(sc *gmScratch) {
	clear(sc.rows)
	a.scratch.Put(sc)
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
	case a.labelOf == nil:
		t.Cands = v.Adj // shared, never modified (core.Algorithm.Seed)
	default:
		sc := a.scratch.Get().(*gmScratch)
		defer a.putScratch(sc)
		a.openLevel(ctx, 1, sc)
		a.walkParents(ctx, 1, append(sc.rows[:0], v.Adj), sc)
		if !a.closeLevel(ctx, 1, sc) {
			return
		}
		t.Cands = a.frontier(nil, ctx, 1, nil, nil, sc)
	}
	spawn(t)
}

// Update implements core.Algorithm: match one pattern level, then count or
// ask for what the next level is matched from.
func (a *GraphMatch) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	ctx, ok := t.Context.(*gmContext)
	if !ok {
		return
	}
	sc := a.scratch.Get().(*gmScratch)
	defer a.putScratch(sc)
	// Levels up to t.Round have been matched (parent-major: cands are level
	// t.Round's expanding matches), or up to t.Round−1 (candidate-major:
	// cands are their neighbourhoods). d is the level this round matches.
	d := t.Round
	if a.labelOf != nil {
		d++
	}
	if d <= a.P.Depth() {
		a.openLevel(ctx, d, sc)
		if a.labelOf == nil {
			a.probeCandidates(ctx, d, t.Cands, cands, sc)
		} else {
			sc.rows = sc.rows[:0]
			for _, p := range a.parents[d] {
				sc.rows = appendRows(sc.rows, ctx.nodes[p].matches, t.Cands, cands)
			}
			a.walkParents(ctx, d, sc.rows, sc)
		}
		if !a.closeLevel(ctx, d, sc) {
			return // a pattern node without a match: the count is 0, die
		}
	}
	if d >= a.P.Depth() {
		if count := a.countMatches(ctx, sc); count > 0 {
			env.AggUpdate(count)
		}
		return
	}
	sc.ids = a.frontier(sc.ids[:0], ctx, d, t.Cands, cands, sc)
	t.Pull(sc.ids...)
}

// openLevel readies level d's nodes for record.
func (a *GraphMatch) openLevel(ctx *gmContext, d int, sc *gmScratch) {
	for _, st := range a.levels[d] {
		if st.Expands {
			sc.pairs[st.Node] = sc.pairs[st.Node][:0]
		} else {
			ctx.nodes[st.Node].hits = make([]int64, len(ctx.nodes[st.Parent].matches))
		}
	}
}

// closeLevel turns the pairs recorded for level d's expanding nodes into
// their matches (ascending, duplicate-free), each with its parent positions
// ascending. It reports whether every node of the level has a match.
func (a *GraphMatch) closeLevel(ctx *gmContext, d int, sc *gmScratch) bool {
	matched := true
	for _, st := range a.levels[d] {
		n := &ctx.nodes[st.Node]
		if !st.Expands {
			matched = matched && slices.ContainsFunc(n.hits, func(h int64) bool { return h != 0 })
			continue
		}
		pairs := sc.pairs[st.Node]
		slices.SortFunc(pairs, func(x, y gmPair) int { return cmp.Or(cmp.Compare(x.id, y.id), cmp.Compare(x.parent, y.parent)) })
		n.matches, n.parents, n.offsets = n.matches[:0], n.parents[:0], n.offsets[:0]
		for i, pr := range pairs {
			if i == 0 || pr.id != pairs[i-1].id {
				n.matches = append(n.matches, pr.id)
				n.offsets = append(n.offsets, int32(len(n.parents)))
			}
			n.parents = append(n.parents, pr.parent)
		}
		n.offsets = append(n.offsets, int32(len(n.parents)))
		matched = matched && len(n.matches) > 0
	}
	return matched
}

// record notes that vertex id matches step st under its parent's j-th match.
func (sc *gmScratch) record(ctx *gmContext, st plan.TreeStep, id graph.VertexID, j int) {
	if st.Expands {
		sc.pairs[st.Node] = append(sc.pairs[st.Node], gmPair{id, int32(j)})
	} else {
		ctx.nodes[st.Node].hits[j]++
	}
}

// walkParents matches level d parent-major. rows holds, parent node by
// parent node of the level (a.parents[d] order), the adjacency list of each
// of the node's matches; a neighbour matches every step under that node
// whose label the column gives it. An ID the column does not know is no
// vertex of the graph, and matches nothing.
func (a *GraphMatch) walkParents(ctx *gmContext, d int, rows [][]graph.VertexID, sc *gmScratch) {
	for _, p := range a.parents[d] {
		kids, n := a.kids[p], len(ctx.nodes[p].matches)
		for j, adj := range rows[:n] {
			for _, id := range adj {
				label, ok := a.labelOf(id)
				if !ok {
					continue
				}
				for _, st := range kids {
					if st.Label == label {
						sc.record(ctx, st, id, j)
					}
				}
			}
		}
		rows = rows[n:]
	}
}

// probeCandidates matches level d candidate-major: a candidate carrying a
// step's label matches under each parent match its own list holds.
func (a *GraphMatch) probeCandidates(ctx *gmContext, d int, ids []graph.VertexID, objs []*graph.Vertex, sc *gmScratch) {
	for i, obj := range objs {
		if obj == nil {
			continue
		}
		for _, st := range a.levels[d] {
			if obj.Label != st.Label {
				continue
			}
			for j, pv := range ctx.nodes[st.Parent].matches {
				if obj.HasNeighbor(pv) {
					sc.record(ctx, st, ids[i], j)
				}
			}
		}
	}
}

// frontier appends to dst what level d+1 is matched from, ascending and
// duplicate-free: level d's expanding matches (parent-major), or the union of
// their lists, read off the round's candidates ids / objs (candidate-major).
func (a *GraphMatch) frontier(dst []graph.VertexID, ctx *gmContext, d int, ids []graph.VertexID, objs []*graph.Vertex, sc *gmScratch) []graph.VertexID {
	sc.rows = sc.rows[:0]
	for _, st := range a.levels[d] {
		switch m := ctx.nodes[st.Node].matches; {
		case !st.Expands:
		case a.labelOf != nil:
			sc.rows = append(sc.rows, m)
		default:
			sc.rows = appendRows(sc.rows, m, ids, objs)
		}
	}
	return kernels.Union(dst, sc.rows)
}

// appendRows appends the adjacency list of each of matches — a subsequence
// of ids, both ascending — to rows, reading them off objs (parallel to ids);
// a match the round holds no vertex for has none.
func appendRows(rows [][]graph.VertexID, matches, ids []graph.VertexID, objs []*graph.Vertex) [][]graph.VertexID {
	i := 0
	for _, m := range matches {
		for i < len(ids) && ids[i] < m {
			i++
		}
		var adj []graph.VertexID
		if i < len(ids) && ids[i] == m && objs[i] != nil {
			adj = objs[i].Adj
		}
		rows = append(rows, adj)
	}
	return rows
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

// An encoded context leads with its arm's format byte: a task at round r
// holds levels up to r (parent-major) or up to r−1 (candidate-major), so
// bytes of the other arm fail decode, never miscount. The map encoding both
// replace led with a node count (1..plan.MaxTreeNodes).
const (
	gmFormat        = 0xB2 // parent-major
	gmFormatGeneric = 0xB1 // candidate-major
)

func (a *GraphMatch) format() byte {
	if a.labelOf == nil {
		return gmFormatGeneric
	}
	return gmFormat
}

// EncodeContext implements core.ContextCodec: the format byte, the node
// count, then per pattern node a leaf's hits or an expanding node's matches,
// per-match parent counts and parent positions — which, the pattern says.
func (a *GraphMatch) EncodeContext(w *wire.Writer, ctxAny any) {
	w.Byte(a.format())
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
	if f := r.Byte(); r.Err() == nil && f != a.format() {
		r.Failf("gm context format %#x, want %#x", f, a.format())
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
