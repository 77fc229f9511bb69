// Package partition implements static load balancing (§6.1): the default
// hash partitioner and the paper's Block-based Deterministic Greedy (BDG)
// partitioner, which first cuts the graph into locality-preserving blocks
// with a multi-source bounded BFS coloring (plus a Hash-Min connected
// components pass for leftover tiny components) and then assigns blocks to
// workers with the deterministic greedy rule of Eq. (1):
//
//	j = argmax_i |P(i) ∩ Γ(B)| · (1 − |P(i)|/C)
package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"gminer/internal/graph"
	"gminer/internal/lsh"
)

// Assignment maps every vertex to its owning worker in [0, K).
//
// Two representations back it: a per-vertex owner map (Hash, Skewed, BDG)
// or a per-block owner map plus a block shift (Blocked) — the block form is
// O(#blocks) to rebuild, which is what makes incremental repartitioning
// under graph mutations cheap (see internal/dyngraph).
type Assignment struct {
	K     int
	owner map[graph.VertexID]int

	// Block-backed form: owner of block (id >> blockShift). Exactly one of
	// owner / blockOwner is non-nil.
	blockOwner map[int64]int
	blockShift uint
	blockSizes []int // per-worker vertex counts, precomputed by Assign
}

// Owner returns the worker owning id; -1 if unknown.
func (a *Assignment) Owner(id graph.VertexID) int {
	if a.blockOwner != nil {
		if w, ok := a.blockOwner[int64(id)>>a.blockShift]; ok {
			return w
		}
		return -1
	}
	if w, ok := a.owner[id]; ok {
		return w
	}
	return -1
}

// Sizes returns the number of vertices per worker.
func (a *Assignment) Sizes() []int {
	if a.blockSizes != nil {
		return append([]int(nil), a.blockSizes...)
	}
	sizes := make([]int, a.K)
	for _, w := range a.owner {
		sizes[w]++
	}
	return sizes
}

// BlockOwners returns the block→worker map of a block-backed assignment
// (nil for a vertex-backed one). The map is shared, not copied: callers
// must treat it as read-only.
func (a *Assignment) BlockOwners() map[int64]int { return a.blockOwner }

// EdgeCut returns the fraction of edges whose endpoints live on different
// workers — the locality measure BDG optimizes.
func (a *Assignment) EdgeCut(g *graph.Graph) float64 {
	var cut, total int64
	g.ForEach(func(v *graph.Vertex) bool {
		owner := a.Owner(v.ID)
		for _, n := range v.Adj {
			if n > v.ID { // count each undirected edge once
				total++
				if owner != a.Owner(n) {
					cut++
				}
			}
		}
		return true
	})
	if total == 0 {
		return 0
	}
	return float64(cut) / float64(total)
}

// Local returns the vertex IDs owned by worker w, in graph order.
func (a *Assignment) Local(g *graph.Graph, w int) []graph.VertexID {
	var out []graph.VertexID
	g.ForEach(func(v *graph.Vertex) bool {
		if a.Owner(v.ID) == w {
			out = append(out, v.ID)
		}
		return true
	})
	return out
}

// Validate checks that every graph vertex is assigned to a valid worker.
func (a *Assignment) Validate(g *graph.Graph) error {
	bad := 0
	g.ForEach(func(v *graph.Vertex) bool {
		if w := a.Owner(v.ID); w < 0 || w >= a.K {
			bad++
		}
		return true
	})
	if bad > 0 {
		return fmt.Errorf("partition: %d vertices unassigned or out of range", bad)
	}
	return nil
}

// Partitioner assigns graph vertices to K workers.
type Partitioner interface {
	Name() string
	Partition(g *graph.Graph, k int) (*Assignment, error)
}

// Hash is the baseline random-hash partitioner ("distributes each vertex
// to workers by hashing the vertex ID", §8.4).
type Hash struct{}

// Name implements Partitioner.
func (Hash) Name() string { return "hash" }

// Partition implements Partitioner.
func (Hash) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	a := &Assignment{K: k, owner: make(map[graph.VertexID]int, g.NumVertices())}
	g.ForEach(func(v *graph.Vertex) bool {
		a.owner[v.ID] = int(lsh.HashID(uint64(v.ID)) % uint64(k))
		return true
	})
	return a, nil
}

// Skewed deliberately imbalances ownership for the task-stealing ablation
// (Figure 13 needs a skewed workload): worker 0 receives `Bias` fraction
// of all vertices, the rest are hashed across the other workers.
type Skewed struct {
	Bias float64 // fraction of vertices forced onto worker 0 (e.g. 0.6)
}

// Name implements Partitioner.
func (s Skewed) Name() string { return fmt.Sprintf("skewed(%.2f)", s.Bias) }

// Partition implements Partitioner.
func (s Skewed) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	a := &Assignment{K: k, owner: make(map[graph.VertexID]int, g.NumVertices())}
	g.ForEach(func(v *graph.Vertex) bool {
		h := lsh.HashID(uint64(v.ID))
		if k == 1 || float64(h%1000)/1000.0 < s.Bias {
			a.owner[v.ID] = 0
		} else {
			a.owner[v.ID] = 1 + int((h>>10)%uint64(k-1))
		}
		return true
	})
	return a, nil
}

// BDG is the Block-based Deterministic Greedy partitioner (§6.1).
type BDG struct {
	// Steps bounds the BFS depth from each source per coloring round
	// ("we set the number of steps taken by BFS from each source to a
	// small value"). Default 3.
	Steps int
	// SourceFrac is the fraction of uncolored vertices sampled as sources
	// per round. Default 0.01 (at least 1).
	SourceFrac float64
	// MaxRounds of BFS coloring before falling back to Hash-Min connected
	// components on the remaining uncolored vertices. Default 8.
	MaxRounds int
	// Seed for source sampling.
	Seed int64
}

// Name implements Partitioner.
func (BDG) Name() string { return "bdg" }

func (b BDG) defaults() BDG {
	if b.Steps <= 0 {
		b.Steps = 3
	}
	if b.SourceFrac <= 0 {
		b.SourceFrac = 0.01
	}
	if b.MaxRounds <= 0 {
		b.MaxRounds = 8
	}
	return b
}

// Partition implements Partitioner.
func (b BDG) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	b = b.defaults()
	color := b.colorBlocks(g)
	blocks := groupBlocks(g, color)
	return b.assignBlocks(g, blocks, color, k)
}

// colorBlocks runs the multi-source bounded BFS coloring; any vertices
// still uncolored after MaxRounds are grouped into connected components by
// Hash-Min, "and then simply consider each CC as a block".
func (b BDG) colorBlocks(g *graph.Graph) map[graph.VertexID]int32 {
	rng := rand.New(rand.NewSource(b.Seed))
	n := g.NumVertices()
	color := make(map[graph.VertexID]int32, n)
	var nextColor int32

	uncolored := make([]graph.VertexID, 0, n)
	g.ForEach(func(v *graph.Vertex) bool {
		uncolored = append(uncolored, v.ID)
		return true
	})

	for round := 0; round < b.MaxRounds && len(uncolored) > 0; round++ {
		// Sample sources from the uncolored set.
		numSources := int(float64(len(uncolored)) * b.SourceFrac)
		if numSources < 1 {
			numSources = 1
		}
		rng.Shuffle(len(uncolored), func(i, j int) {
			uncolored[i], uncolored[j] = uncolored[j], uncolored[i]
		})
		frontier := make([]graph.VertexID, 0, numSources)
		for _, id := range uncolored[:numSources] {
			if _, ok := color[id]; ok {
				continue
			}
			color[id] = nextColor
			nextColor++
			frontier = append(frontier, id)
		}
		// Bounded-step synchronous BFS: colored frontier vertices
		// broadcast their color; uncolored receivers adopt one.
		for step := 0; step < b.Steps && len(frontier) > 0; step++ {
			var next []graph.VertexID
			for _, id := range frontier {
				c := color[id]
				for _, nb := range g.Vertex(id).Adj {
					if _, ok := color[nb]; !ok {
						color[nb] = c
						next = append(next, nb)
					}
				}
			}
			frontier = next
		}
		// Compact the uncolored list.
		out := uncolored[:0]
		for _, id := range uncolored {
			if _, ok := color[id]; !ok {
				out = append(out, id)
			}
		}
		uncolored = out
	}

	if len(uncolored) > 0 {
		b.hashMinCC(g, color, uncolored, &nextColor)
	}
	return color
}

// hashMinCC assigns each remaining connected component (within the
// uncolored subgraph) a fresh color via min-ID label propagation
// (Hash-Min [39]).
func (b BDG) hashMinCC(g *graph.Graph, color map[graph.VertexID]int32, uncolored []graph.VertexID, nextColor *int32) {
	label := make(map[graph.VertexID]graph.VertexID, len(uncolored))
	for _, id := range uncolored {
		label[id] = id
	}
	changed := true
	for changed {
		changed = false
		for _, id := range uncolored {
			min := label[id]
			for _, nb := range g.Vertex(id).Adj {
				if l, ok := label[nb]; ok && l < min {
					min = l
				}
			}
			if min < label[id] {
				label[id] = min
				changed = true
			}
		}
	}
	ccColor := make(map[graph.VertexID]int32)
	for _, id := range uncolored {
		root := label[id]
		c, ok := ccColor[root]
		if !ok {
			c = *nextColor
			*nextColor++
			ccColor[root] = c
		}
		color[id] = c
	}
}

// groupBlocks collects block membership from the coloring.
func groupBlocks(g *graph.Graph, color map[graph.VertexID]int32) [][]graph.VertexID {
	byColor := make(map[int32][]graph.VertexID)
	g.ForEach(func(v *graph.Vertex) bool {
		c := color[v.ID]
		byColor[c] = append(byColor[c], v.ID)
		return true
	})
	blocks := make([][]graph.VertexID, 0, len(byColor))
	for _, members := range byColor {
		blocks = append(blocks, members)
	}
	// "We sort the blocks in descending order of their sizes and then
	// start the assignment from the largest block." Ties broken by first
	// member ID for determinism.
	sort.Slice(blocks, func(i, j int) bool {
		if len(blocks[i]) != len(blocks[j]) {
			return len(blocks[i]) > len(blocks[j])
		}
		return blocks[i][0] < blocks[j][0]
	})
	return blocks
}

// assignBlocks applies the deterministic greedy rule (Eq. 1).
func (b BDG) assignBlocks(g *graph.Graph, blocks [][]graph.VertexID, color map[graph.VertexID]int32, k int) (*Assignment, error) {
	a := &Assignment{K: k, owner: make(map[graph.VertexID]int, g.NumVertices())}
	partSize := make([]int, k)
	capacity := float64(g.NumVertices()) / float64(k)
	if capacity < 1 {
		capacity = 1
	}
	for _, members := range blocks {
		// overlap[i] = |P(i) ∩ Γ(B)|: neighbors of B already on worker i.
		overlap := make([]float64, k)
		for _, id := range members {
			for _, nb := range g.Vertex(id).Adj {
				if w, ok := a.owner[nb]; ok {
					overlap[w]++
				}
			}
		}
		best, bestScore := 0, -1.0
		for i := 0; i < k; i++ {
			score := overlap[i] * (1 - float64(partSize[i])/capacity)
			// With zero overlap everywhere the score ties at 0; prefer
			// the emptiest worker so sizes stay balanced.
			if score > bestScore || (score == bestScore && partSize[i] < partSize[best]) {
				best, bestScore = i, score
			}
		}
		// A full worker must not keep absorbing blocks on stale overlap:
		// if the chosen worker is already over capacity, fall back to the
		// least loaded one.
		if float64(partSize[best]) >= capacity {
			least := 0
			for i := 1; i < k; i++ {
				if partSize[i] < partSize[least] {
					least = i
				}
			}
			best = least
		}
		for _, id := range members {
			a.owner[id] = best
		}
		partSize[best] += len(members)
	}
	return a, nil
}
