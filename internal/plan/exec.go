package plan

import (
	"fmt"

	"gminer/internal/kernels"
)

// Count executes a ModeEmbed plan against a CSR index and returns the
// number of distinct embeddings of the pattern in the graph. Each
// embedding is generated exactly once: the plan's After/Before
// constraints keep one representative per automorphism class, so no
// post-hoc division or deduplication happens. The walk is a DFS over
// matching steps; each step's candidate set is the intersection of the
// adjacency rows named by Connect, computed by the strategy-selected
// kernels, then narrowed to the rank window the order constraints allow.
func Count(c *kernels.CSR, p *Plan) (int64, error) {
	if p.Mode != ModeEmbed {
		return 0, fmt.Errorf("plan: Count needs a ModeEmbed plan (got %s)", p.Mode)
	}
	k := len(p.Steps)
	n := c.N()
	if n == 0 || k == 0 {
		return 0, nil
	}
	sc := c.GetScratch()
	defer c.PutScratch(sc)

	matched := make([]uint32, k)
	// One candidate buffer per depth ≥ 1, reused across the whole walk.
	bufs := make([][]uint32, k)
	var total int64
	for r := uint32(0); r < uint32(n); r++ {
		if p.Steps[0].Label != noLabel && c.Label(r) != p.Steps[0].Label {
			continue
		}
		if k == 1 {
			total++
			continue
		}
		matched[0] = r
		total += countRec(c, p, sc, matched, bufs, 1)
	}
	return total, nil
}

// CountFrom executes the tail of a ModeEmbed plan with step 0 pinned to
// the vertex ranked r — the per-seed form the task-parallel executors
// use (one G-Miner task per DAG seed). Constraint and candidate handling
// are identical to Count.
func CountFrom(c *kernels.CSR, p *Plan, r uint32) (int64, error) {
	if p.Mode != ModeEmbed {
		return 0, fmt.Errorf("plan: CountFrom needs a ModeEmbed plan (got %s)", p.Mode)
	}
	if int(r) >= c.N() {
		return 0, fmt.Errorf("plan: rank %d outside universe [0,%d)", r, c.N())
	}
	if p.Steps[0].Label != noLabel && c.Label(r) != p.Steps[0].Label {
		return 0, nil
	}
	if len(p.Steps) == 1 {
		return 1, nil
	}
	sc := c.GetScratch()
	defer c.PutScratch(sc)
	matched := make([]uint32, len(p.Steps))
	bufs := make([][]uint32, len(p.Steps))
	matched[0] = r
	return countRec(c, p, sc, matched, bufs, 1), nil
}

func countRec(c *kernels.CSR, p *Plan, sc *kernels.Scratch, matched []uint32, bufs [][]uint32, depth int) int64 {
	st := &p.Steps[depth]
	lo, hi := bounds(c, st, matched)
	if lo >= hi {
		return 0
	}
	last := depth == len(p.Steps)-1

	// Order constraints only shrink operands, so narrowing every Connect
	// row to the [lo, hi) rank window *before* intersecting makes the
	// intersection cost proportional to the window, not the full rows —
	// for the symmetry-broken triangle this is the difference between
	// Row(a) ∩ Row(b) and the suffix intersection above b.
	cands := window(c.Row(matched[st.Connect[0]]), lo, hi)
	for i, s := range st.Connect[1:] {
		row := window(c.Row(matched[s]), lo, hi)
		if last && countOnly(st) && i == len(st.Connect)-2 {
			return int64(kernels.CountScratch(sc, cands, row))
		}
		bufs[depth] = kernels.IntersectScratch(sc, bufs[depth][:0], cands, row)
		cands = bufs[depth]
	}
	if last && countOnly(st) {
		return int64(len(cands))
	}

	// A count-only closing child that intersects two rows has at most one
	// of them, probe, change with this depth's candidate; the other, fixed,
	// is the same for the whole loop. Load it once — windowed by the
	// loosest bounds any candidate can produce (cands is ascending) — and
	// the child is one bitmap probe per element of each candidate's row.
	var closing *Step
	fixed, probe := 0, 0
	if nx := &p.Steps[len(p.Steps)-1]; depth == len(p.Steps)-2 && countOnly(nx) && len(nx.Connect) == 2 && len(cands) > 0 {
		closing, fixed, probe = nx, nx.Connect[0], nx.Connect[1]
		if fixed == depth {
			fixed, probe = probe, fixed
		}
		matched[depth] = cands[0]
		flo, _ := bounds(c, nx, matched)
		matched[depth] = cands[len(cands)-1]
		_, fhi := bounds(c, nx, matched)
		sc.Load(window(c.Row(matched[fixed]), flo, fhi))
	}

	var total int64
	for _, r := range cands {
		if st.Label != noLabel && c.Label(r) != st.Label {
			continue
		}
		ok := true
		for _, s := range st.Distinct {
			if matched[s] == r {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if last {
			total++
			continue
		}
		matched[depth] = r
		if closing != nil {
			nlo, nhi := bounds(c, closing, matched)
			total += int64(sc.CountLoaded(window(c.Row(matched[probe]), nlo, nhi)))
			continue
		}
		total += countRec(c, p, sc, matched, bufs, depth+1)
	}
	return total
}

// countOnly reports whether a last step st contributes exactly
// |candidates| — no label or distinctness filter — so its final
// intersection can run as a counting kernel with nothing materialized.
func countOnly(st *Step) bool { return st.Label == noLabel && len(st.Distinct) == 0 }

// bounds returns the rank window [lo, hi) st's order constraints leave
// open under the current partial match.
func bounds(c *kernels.CSR, st *Step, matched []uint32) (lo, hi uint32) {
	hi = uint32(c.N())
	for _, s := range st.After {
		if m := matched[s] + 1; m > lo {
			lo = m
		}
	}
	for _, s := range st.Before {
		if m := matched[s]; m < hi {
			hi = m
		}
	}
	return lo, hi
}

// window returns the slice of sorted s falling in the rank window
// [lo, hi).
func window(s []uint32, lo, hi uint32) []uint32 {
	s = s[kernels.SearchSorted(s, lo):]
	return s[:kernels.SearchSorted(s, hi)]
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
