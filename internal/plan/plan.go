// Package plan holds the two plans something runs, and their rank-space
// executors over a kernels.CSR:
//
//   - ModeHom: rooted labeled tree patterns under the paper's GM
//     semantics — homomorphism counting, matched level by level. Compile
//     builds the plan, whose level schedule (TreeSchedule: node, parent,
//     label per step) is what GM matches by; HomCount executes it.
//   - ModeEmbed: the triangle, counted as distinct embeddings exactly once
//     each by order constraints on the matched ranks. Triangle returns it
//     and Count executes it; it is the oracle side of TC's differential
//     gates.
//
// Compile validates untrusted input and rejects instead of panicking
// (FuzzCompile pins this).
package plan

import (
	"fmt"
	"slices"
)

// Mode selects the execution semantics of a plan.
type Mode uint8

const (
	// ModeHom counts tree-pattern homomorphisms (GM semantics).
	ModeHom Mode = iota
	// ModeEmbed counts distinct embeddings, each once.
	ModeEmbed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeHom {
		return "hom"
	}
	return "embed"
}

// MaxTreeNodes bounds tree-pattern size: large enough for any realistic
// query, small enough that compilation cost is trivially bounded on
// untrusted input.
const MaxTreeNodes = 64

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
// steps (the step's intersection program) and rank strictly above every
// vertex matched at the After steps.
type Step struct {
	// Connect lists earlier step indices whose adjacency rows are
	// intersected to form this step's candidate set.
	Connect []int
	// After lists earlier steps whose matched rank this step's candidate
	// must exceed (cand > matched[s]).
	After []int
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

	// Steps is the ModeEmbed schedule: Steps[s] constrains the vertex
	// matched at step s.
	Steps []Step
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

// Triangle returns the triangle plan — the TC core. Step 0 is any vertex,
// step 1 a neighbour ranked above it, and step 2 a common neighbour of
// both ranked above step 1, so each triangle is matched once, in ascending
// rank order.
func Triangle() *Plan {
	return &Plan{
		Mode:  ModeEmbed,
		Nodes: 3,
		Steps: []Step{
			{},
			{Connect: []int{0}, After: []int{0}},
			{Connect: []int{0, 1}, After: []int{1}},
		},
	}
}
