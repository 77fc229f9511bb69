package plan

import (
	"fmt"

	"gminer/internal/kernels"
)

// Count executes a ModeEmbed plan against a CSR index and returns the
// number of distinct embeddings of the pattern in the graph. Each
// embedding is generated exactly once: the plan's After constraints keep
// one rank order of it, so no post-hoc division or deduplication happens.
// The walk is a DFS over matching steps; each step's candidate set is the
// intersection of the adjacency rows named by Connect, computed by the
// strategy-selected kernels, above the floor the order constraints set.
func Count(c *kernels.CSR, p *Plan) (int64, error) {
	if p.Mode != ModeEmbed {
		return 0, fmt.Errorf("plan: Count needs a ModeEmbed plan (got %s)", p.Mode)
	}
	k := len(p.Steps)
	n := c.N()
	if n == 0 || k == 0 {
		return 0, nil
	}
	if k == 1 {
		return int64(n), nil
	}
	sc := c.GetScratch()
	defer c.PutScratch(sc)

	matched := make([]uint32, k)
	// One candidate buffer per depth ≥ 1, reused across the whole walk.
	bufs := make([][]uint32, k)
	var total int64
	for r := uint32(0); r < uint32(n); r++ {
		matched[0] = r
		total += countRec(c, p, sc, matched, bufs, 1)
	}
	return total, nil
}

func countRec(c *kernels.CSR, p *Plan, sc *kernels.Scratch, matched []uint32, bufs [][]uint32, depth int) int64 {
	st := &p.Steps[depth]
	lo := floor(st, matched)
	last := depth == len(p.Steps)-1

	// Order constraints only shrink operands, so cutting every Connect row
	// to the ranks above the floor *before* intersecting makes the
	// intersection cost proportional to those suffixes, not the full rows —
	// for the triangle this is the difference between Row(a) ∩ Row(b) and
	// the suffix intersection above b.
	cands := above(c.Row(matched[st.Connect[0]]), lo)
	for i, s := range st.Connect[1:] {
		row := above(c.Row(matched[s]), lo)
		if last && i == len(st.Connect)-2 {
			return int64(kernels.CountScratch(sc, cands, row))
		}
		bufs[depth] = kernels.Intersect(bufs[depth][:0], cands, row)
		cands = bufs[depth]
	}
	if last {
		return int64(len(cands))
	}

	// A closing child that intersects two rows has at most one of them,
	// probe, change with this depth's candidate; the other, fixed, is the
	// same for the whole loop. Load it once — above the lowest floor any
	// candidate can produce (cands is ascending) — and the child is one
	// bitmap probe per element of each candidate's row.
	var closing *Step
	fixed, probe := 0, 0
	if nx := &p.Steps[len(p.Steps)-1]; depth == len(p.Steps)-2 && len(nx.Connect) == 2 && len(cands) > 0 {
		closing, fixed, probe = nx, nx.Connect[0], nx.Connect[1]
		if fixed == depth {
			fixed, probe = probe, fixed
		}
		matched[depth] = cands[0]
		sc.Load(above(c.Row(matched[fixed]), floor(nx, matched)))
	}

	var total int64
	for _, r := range cands {
		matched[depth] = r
		if closing != nil {
			total += int64(sc.CountLoaded(above(c.Row(matched[probe]), floor(closing, matched))))
			continue
		}
		total += countRec(c, p, sc, matched, bufs, depth+1)
	}
	return total
}

// floor returns the lowest rank st's order constraints leave open under
// the current partial match.
func floor(st *Step, matched []uint32) (lo uint32) {
	for _, s := range st.After {
		if m := matched[s] + 1; m > lo {
			lo = m
		}
	}
	return lo
}

// above returns the suffix of sorted s at or above rank lo.
func above(s []uint32, lo uint32) []uint32 {
	return s[kernels.SearchSorted(s, lo):]
}

// HomCount executes a ModeHom plan: the number of homomorphisms of the
// rooted labeled tree into the graph, by the same bottom-up dynamic
// program as the sequential reference (algo.RefMatchCount) — h(p, v) is
// the number of ways to map the subtree rooted at pattern node p with p
// on vertex v, h(leaf, v) = 1 on label match, h(p, v) = ∏_children Σ_{w
// ∈ Γ(v)} h(child, w). Arithmetic is int64 throughout, so results are
// numerically identical to the reference.
func HomCount(c *kernels.CSR, p *Plan) (int64, error) {
	if p.Mode != ModeHom {
		return 0, fmt.Errorf("plan: HomCount needs a ModeHom plan (got %s)", p.Mode)
	}
	n := c.N()
	if n == 0 {
		return 0, nil
	}
	children := make([][]int, p.Nodes)
	for i := 1; i < p.Nodes; i++ {
		children[p.TreeParent[i]] = append(children[p.TreeParent[i]], i)
	}
	h := make([][]int64, p.Nodes)
	// Deepest level first; a level's tables free once its parents consume
	// them.
	for d := len(p.TreeLevels) - 1; d >= 0; d-- {
		for _, ts := range p.TreeLevels[d] {
			tab := make([]int64, n)
			for r := uint32(0); r < uint32(n); r++ {
				if c.Label(r) != ts.Label {
					continue
				}
				out := int64(1)
				for _, ch := range children[ts.Node] {
					var sum int64
					for _, nb := range c.Row(r) {
						sum += h[ch][nb]
					}
					out *= sum
					if out == 0 {
						break
					}
				}
				tab[r] = out
			}
			h[ts.Node] = tab
		}
		if d+1 < len(p.TreeLevels) {
			for _, ts := range p.TreeLevels[d+1] {
				h[ts.Node] = nil
			}
		}
	}
	var total int64
	for r := 0; r < n; r++ {
		total += h[0][r]
	}
	return total, nil
}
