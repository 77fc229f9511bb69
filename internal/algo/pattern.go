// Package algo implements the five graph mining applications evaluated in
// the paper (§8.1) on top of the G-Miner programming framework
// (core.Algorithm): triangle counting (TC), maximum clique finding (MCF),
// graph matching (GM), community detection (CD) and graph clustering
// (GC), plus sequential reference implementations used as correctness
// oracles and as the single-threaded baseline of Table 1 / Figure 7.
package algo

import (
	"fmt"
	"strconv"

	"gminer/internal/graph"
	"gminer/internal/kernels"
)

// Pattern is a rooted, labeled tree pattern for graph matching, matched
// level by level as in Figure 1 of the paper. Node 0 is the root; nodes
// must be listed in BFS order (every node's parent precedes it).
type Pattern struct {
	// Labels[i] is the required label of pattern node i.
	Labels []int32
	// Parent[i] is the parent node of i; Parent[0] = -1.
	Parent []int

	levels   [][]int // nodes per depth
	children [][]int
	depth    []int
}

// NewPattern validates and prepares a pattern.
func NewPattern(labels []int32, parent []int) (*Pattern, error) {
	if len(labels) == 0 || len(labels) != len(parent) {
		return nil, fmt.Errorf("algo: pattern needs equal, non-empty labels/parent")
	}
	if parent[0] != -1 {
		return nil, fmt.Errorf("algo: pattern node 0 must be the root (parent -1)")
	}
	p := &Pattern{Labels: labels, Parent: parent}
	p.depth = make([]int, len(labels))
	p.children = make([][]int, len(labels))
	for i := 1; i < len(labels); i++ {
		if parent[i] < 0 || parent[i] >= i {
			return nil, fmt.Errorf("algo: pattern node %d: parent %d must precede it (BFS order)", i, parent[i])
		}
		p.depth[i] = p.depth[parent[i]] + 1
		p.children[parent[i]] = append(p.children[parent[i]], i)
	}
	maxDepth := 0
	for _, d := range p.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	p.levels = make([][]int, maxDepth+1)
	for i, d := range p.depth {
		p.levels[d] = append(p.levels[d], i)
	}
	return p, nil
}

// MustPattern is NewPattern that panics on error.
func MustPattern(labels []int32, parent []int) *Pattern {
	p, err := NewPattern(labels, parent)
	if err != nil {
		panic(err)
	}
	return p
}

// FigurePattern returns the query pattern of Figure 1: a root 'a' with
// children 'b' and 'c', where 'c' has children 'b' and 'd'. With the
// 7-letter alphabet {a..g} mapped to {0..6}.
func FigurePattern() *Pattern {
	return MustPattern(
		[]int32{0, 1, 2, 1, 3},
		[]int{-1, 0, 0, 2, 2},
	)
}

// PathPattern returns a simple path pattern with the given labels.
func PathPattern(labels ...int32) *Pattern {
	parent := make([]int, len(labels))
	for i := range parent {
		parent[i] = i - 1
	}
	return MustPattern(labels, parent)
}

// Depth returns the number of levels below the root.
func (p *Pattern) Depth() int { return len(p.levels) - 1 }

// Levels returns pattern node indices grouped by depth.
func (p *Pattern) Levels() [][]int { return p.levels }

// Children returns the child nodes of pattern node i.
func (p *Pattern) Children(i int) []int { return p.children[i] }

// attrSimilarity returns the fraction of equal dimensions between two
// attribute vectors (the categorical similarity the generators produce).
// Vectors of different lengths compare over the shorter prefix.
func attrSimilarity(a, b []int32) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	eq := 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(n)
}

// weightedSimilarity scores attribute vector a against an exemplar with
// per-dimension weights (FocusCO-style focus attributes): the weighted
// fraction of matching dimensions.
func weightedSimilarity(a, exemplar []int32, weights []float64) float64 {
	n := len(a)
	if len(exemplar) < n {
		n = len(exemplar)
	}
	if len(weights) < n {
		n = len(weights)
	}
	var total, match float64
	for i := 0; i < n; i++ {
		total += weights[i]
		if a[i] == exemplar[i] {
			match += weights[i]
		}
	}
	if total == 0 {
		return 0
	}
	return match / total
}

// intersectSorted returns |a ∩ b| for sorted ID slices. It is a thin
// front for the kernel layer's adaptive merge/gallop counting, kept so
// call sites read in set language.
func intersectSorted(a, b []graph.VertexID) int {
	return kernels.Count(a, b)
}

// formatIDs renders a sorted vertex set as a stable record string: the IDs
// in decimal, one space apart, built in one buffer.
func formatIDs(ids []graph.VertexID) string {
	buf := make([]byte, 0, 8*len(ids))
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	return string(buf)
}
