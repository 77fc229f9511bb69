// Package plan compiles mining patterns into execution plans, the
// pattern-aware layer ROADMAP item 1 calls for (Peregrine's core idea):
// instead of exploring generically and filtering, a compiled plan fixes a
// vertex matching order, derives symmetry-breaking order constraints from
// the pattern's automorphisms so equivalent matches are never generated,
// and lowers each expansion step to an intersection program executed by
// the internal/kernels strategy-selected set kernels.
//
// Two plan modes cover the system's workloads:
//
//   - ModeHom: rooted labeled tree patterns under the paper's GM
//     semantics — homomorphism counting, matched level by level. The plan
//     is the level schedule (node, parent, label per step); symmetry
//     breaking does not apply because homomorphisms are counted, not
//     deduplicated.
//   - ModeEmbed: arbitrary small connected patterns (triangle and clique
//     cores: TC, and MCF's per-seed triangle/clique expansion) counted as
//     distinct embeddings, exactly once each, via automorphism-derived
//     order constraints.
//
// Compile and CompileGraph validate untrusted input and reject instead of
// panicking (FuzzCompile pins this), so a plan request can come straight
// from a jobspec.
package plan

import (
	"fmt"
	"slices"
	"sort"

	"gminer/internal/graph"
)

// Mode selects the execution semantics of a plan.
type Mode uint8

const (
	// ModeHom counts tree-pattern homomorphisms (GM semantics).
	ModeHom Mode = iota
	// ModeEmbed counts distinct embeddings with symmetry breaking.
	ModeEmbed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeHom {
		return "hom"
	}
	return "embed"
}

// noLabel aliases the graph's wildcard label for the executors.
const noLabel = graph.NoLabel

// MaxTreeNodes bounds tree-pattern size: large enough for any realistic
// query, small enough that compilation cost is trivially bounded on
// untrusted input.
const MaxTreeNodes = 64

// MaxEmbedNodes bounds embedding-mode pattern size; the automorphism
// search is factorial in the worst case, so it stays small.
const MaxEmbedNodes = 8

// TreeStep is one node of a ModeHom level schedule.
type TreeStep struct {
	// Node is the pattern node index matched at this step.
	Node int
	// Parent is the pattern parent node (already matched one level up).
	Parent int
	// Label is the required vertex label.
	Label int32
	// Expands reports whether Node has children: only then are its matches
	// recorded and their neighbourhoods pulled; a leaf's are merely counted.
	Expands bool
}

// Step is one expansion step of a ModeEmbed plan. The matched data vertex
// for step s must be adjacent to every vertex matched at the Connect
// steps (the step's intersection program), carry Label (graph.NoLabel
// matches anything), and respect the symmetry-breaking order constraints:
// strictly greater rank than every After step's vertex and strictly
// smaller than every Before step's vertex.
type Step struct {
	// Node is the original pattern node matched at this step.
	Node int
	// Label is the required label; graph.NoLabel matches any vertex.
	Label int32
	// Connect lists earlier step indices whose adjacency rows are
	// intersected to form this step's candidate set. Non-empty for every
	// step after the first (patterns are connected).
	Connect []int
	// After lists earlier steps whose matched rank this step's candidate
	// must exceed (symmetry breaking: cand > matched[s]).
	After []int
	// Before lists earlier steps whose matched rank bounds this step's
	// candidate from above (cand < matched[s]).
	Before []int
	// Distinct lists earlier steps the candidate must additionally differ
	// from: steps not already distinct by adjacency (Connect — no self
	// loops) or by order (After/Before). Injectivity check.
	Distinct []int
}

// Plan is a compiled pattern execution plan.
type Plan struct {
	// Mode selects the executor (HomCount vs Count).
	Mode Mode
	// Nodes is the pattern size.
	Nodes int
	// Labels[i] is the label of pattern node i (node space).
	Labels []int32

	// TreeParent / TreeLevels are the ModeHom schedule: TreeLevels[d]
	// lists the steps of depth d in node order (the paper's level-by-level
	// matching order, which the GM executor follows exactly).
	TreeParent []int
	TreeLevels [][]TreeStep

	// Order / Steps are the ModeEmbed schedule: Order[s] is the pattern
	// node matched at step s, Steps[s] its constraints.
	Order []int
	Steps []Step
	// Aut is |Aut(pattern)| — how many automorphic duplicates the symmetry
	// constraints eliminate per embedding.
	Aut int
}

// Depth returns the number of levels below the root of a ModeHom plan.
func (p *Plan) Depth() int { return len(p.TreeLevels) - 1 }

// Compile compiles a rooted labeled tree pattern (the algo.Pattern form:
// node 0 is the root, every node's parent precedes it) into a ModeHom
// plan. Invalid input returns an error; Compile never panics.
func Compile(labels []int32, parent []int) (*Plan, error) {
	n := len(labels)
	if n == 0 || n != len(parent) {
		return nil, fmt.Errorf("plan: pattern needs equal, non-empty labels/parent (got %d labels, %d parents)", n, len(parent))
	}
	if n > MaxTreeNodes {
		return nil, fmt.Errorf("plan: pattern has %d nodes, max %d", n, MaxTreeNodes)
	}
	if parent[0] != -1 {
		return nil, fmt.Errorf("plan: node 0 must be the root (parent -1, got %d)", parent[0])
	}
	for i := 1; i < n; i++ {
		if parent[i] < 0 || parent[i] >= i {
			return nil, fmt.Errorf("plan: node %d: parent %d must precede it (BFS order)", i, parent[i])
		}
	}
	return &Plan{
		Mode:       ModeHom,
		Nodes:      n,
		Labels:     append([]int32(nil), labels...),
		TreeParent: append([]int(nil), parent...),
		TreeLevels: TreeSchedule(labels, parent),
	}, nil
}

// TreeSchedule returns the level schedule ([d]: the depth-d nodes in node
// order) of a tree pattern Compile would accept at any size — MaxTreeNodes
// does not bound it. Parents precede children, so depths open one at a time.
func TreeSchedule(labels []int32, parent []int) [][]TreeStep {
	depth := make([]int, len(labels))
	var levels [][]TreeStep
	for i, label := range labels {
		if i > 0 {
			depth[i] = depth[parent[i]] + 1
		}
		if depth[i] == len(levels) {
			levels = append(levels, nil)
		}
		levels[depth[i]] = append(levels[depth[i]], TreeStep{i, parent[i], label, slices.Contains(parent, i)})
	}
	return levels
}

// CompileGraph compiles a small connected pattern graph into a ModeEmbed
// plan: matching order by greedy connectivity, symmetry-breaking order
// constraints from the automorphism group, per-step intersection
// programs. labels may be nil (all wildcard). Invalid input returns an
// error; CompileGraph never panics.
func CompileGraph(n int, edges [][2]int, labels []int32) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("plan: pattern needs at least one node")
	}
	if n > MaxEmbedNodes {
		return nil, fmt.Errorf("plan: embedding pattern has %d nodes, max %d", n, MaxEmbedNodes)
	}
	if labels == nil {
		labels = make([]int32, n)
		for i := range labels {
			labels[i] = graph.NoLabel
		}
	}
	if len(labels) != n {
		return nil, fmt.Errorf("plan: %d labels for %d nodes", len(labels), n)
	}
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	deg := make([]int, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("plan: edge {%d,%d} outside [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("plan: self loop on node %d", u)
		}
		if !adj[u][v] {
			adj[u][v], adj[v][u] = true, true
			deg[u]++
			deg[v]++
		}
	}
	if !connected(n, adj) {
		return nil, fmt.Errorf("plan: pattern must be connected")
	}

	auts := automorphisms(n, adj, labels, deg)
	conds := symmetryConds(n, auts)
	order := matchingOrder(n, adj, deg)

	stepOf := make([]int, n)
	for s, node := range order {
		stepOf[node] = s
	}
	p := &Plan{
		Mode:   ModeEmbed,
		Nodes:  n,
		Labels: append([]int32(nil), labels...),
		Order:  order,
		Aut:    len(auts),
		Steps:  make([]Step, n),
	}
	for s, node := range order {
		st := &p.Steps[s]
		st.Node = node
		st.Label = labels[node]
		for e := 0; e < s; e++ {
			if adj[node][order[e]] {
				st.Connect = append(st.Connect, e)
			}
		}
	}
	for _, c := range conds {
		sa, sb := stepOf[c[0]], stepOf[c[1]]
		// The later-matched endpoint carries the constraint.
		if sa < sb {
			p.Steps[sb].After = append(p.Steps[sb].After, sa)
		} else {
			p.Steps[sa].Before = append(p.Steps[sa].Before, sb)
		}
	}
	// Injectivity: a candidate differs automatically from steps it is
	// adjacent to (no self loops) or ordered against; everything else
	// needs an explicit distinctness check.
	for s := range p.Steps {
		st := &p.Steps[s]
		covered := make(map[int]bool, s)
		for _, e := range st.Connect {
			covered[e] = true
		}
		for _, e := range st.After {
			covered[e] = true
		}
		for _, e := range st.Before {
			covered[e] = true
		}
		for e := 0; e < s; e++ {
			if !covered[e] {
				st.Distinct = append(st.Distinct, e)
			}
		}
		sort.Ints(st.After)
		sort.Ints(st.Before)
	}
	return p, nil
}

// Triangle returns the compiled triangle plan — the TC core: matching
// order v0 < v1 < v2 in rank space, each triangle generated exactly once
// (Aut = 6 duplicates eliminated).
func Triangle() *Plan {
	p, err := CompileGraph(3, [][2]int{{0, 1}, {0, 2}, {1, 2}}, nil)
	if err != nil {
		panic(err) // static input; cannot fail
	}
	return p
}

// Clique returns the compiled K_k plan — the MCF per-seed core: a total
// order over all k vertices (Aut = k!), so each clique is generated once.
func Clique(k int) (*Plan, error) {
	var edges [][2]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return CompileGraph(k, edges, nil)
}

// connected reports whether the pattern graph is connected (single
// isolated node counts as connected).
func connected(n int, adj [][]bool) bool {
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 0; v < n; v++ {
			if adj[u][v] && !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// automorphisms enumerates Aut(pattern): all label- and
// adjacency-preserving permutations, by pruned backtracking (patterns
// have at most MaxEmbedNodes vertices).
func automorphisms(n int, adj [][]bool, labels []int32, deg []int) [][]int {
	perm := make([]int, n)
	used := make([]bool, n)
	var out [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for v := 0; v < n; v++ {
			if used[v] || labels[v] != labels[i] || deg[v] != deg[i] {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				if adj[i][j] != adj[v][perm[j]] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			perm[i] = v
			used[v] = true
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
	return out
}

// symmetryConds derives the order constraints that leave exactly one
// representative per automorphism class valid: repeatedly take the
// smallest node moved by the remaining group, constrain it below every
// image it can be sent to, then descend into the stabilizer (the
// GraphZero/Peregrine construction).
func symmetryConds(n int, auts [][]int) [][2]int {
	var conds [][2]int
	group := auts
	for len(group) > 1 {
		v := -1
		for i := 0; i < n && v < 0; i++ {
			for _, sigma := range group {
				if sigma[i] != i {
					v = i
					break
				}
			}
		}
		if v < 0 {
			break // only the identity remains
		}
		seen := make(map[int]bool)
		var stab [][]int
		for _, sigma := range group {
			if sigma[v] == v {
				stab = append(stab, sigma)
			} else if !seen[sigma[v]] {
				seen[sigma[v]] = true
				conds = append(conds, [2]int{v, sigma[v]})
			}
		}
		group = stab
	}
	return conds
}

// matchingOrder picks the exploration order: start at the highest-degree
// node, then greedily take the node with the most already-ordered
// neighbors (ties: higher degree, then smaller index) — maximizing how
// constrained each step's candidate set is, which is what makes the
// intersection programs shrink fastest.
func matchingOrder(n int, adj [][]bool, deg []int) []int {
	order := make([]int, 0, n)
	placed := make([]bool, n)
	start := 0
	for v := 1; v < n; v++ {
		if deg[v] > deg[start] {
			start = v
		}
	}
	order = append(order, start)
	placed[start] = true
	for len(order) < n {
		best, bestConn := -1, -1
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			conn := 0
			for _, u := range order {
				if adj[v][u] {
					conn++
				}
			}
			if conn > bestConn || (conn == bestConn && best >= 0 && deg[v] > deg[best]) {
				best, bestConn = v, conn
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}
