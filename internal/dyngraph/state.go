package dyngraph

import (
	"fmt"

	"gminer/internal/graph"
	"gminer/internal/partition"
)

// State is the incremental repartitioning state of a dynamic Session: the
// Blocked partition aggregates maintained mutation by mutation, the
// current block assignment, and the graph epoch. It is not concurrency
// safe — the Session serializes Apply against running jobs.
//
// Invariant (checked by the differential suite): after any sequence of
// Apply calls, s.agg equals partition.CollectBlocks of the mutated graph
// and s.Assignment() equals a from-scratch Blocked.Partition — byte
// identical owners, sizes and local tables.
type State struct {
	k      int
	agg    *partition.BlockAgg
	blocks map[int64]int // block → worker, what Apply diffs to count moved blocks
	assign *partition.Assignment
	epoch  int64
}

// NewState collects the block aggregates of g from scratch and places
// them; the resulting assignment is identical to Blocked{Shift:
// shift}.Partition(g, k). Epoch starts at 0.
func NewState(g *graph.Graph, k int, shift uint) (*State, error) {
	if k < 1 {
		return nil, fmt.Errorf("dyngraph: k must be >= 1, got %d", k)
	}
	if shift == 0 {
		shift = partition.DefaultBlockShift
	}
	agg := partition.CollectBlocks(g, shift)
	blocks := agg.Place(k)
	return &State{k: k, agg: agg, blocks: blocks, assign: agg.Assign(g, k, blocks)}, nil
}

// Assignment returns the current block assignment.
func (s *State) Assignment() *partition.Assignment { return s.assign }

// Epoch returns the current graph epoch (0 = the loaded snapshot).
func (s *State) Epoch() int64 { return s.epoch }

// ApplyInfo describes one epoch transition.
type ApplyInfo struct {
	Epoch        int64      // epoch after the batch
	Stats        ApplyStats // what the batch did
	DirtyBlocks  int        // blocks containing a structurally-changed vertex
	MovedBlocks  int        // blocks whose owner changed in re-placement
	DirtyWorkers []bool     // workers whose local tables must be rebuilt
	// Touched holds every vertex the batch created or deleted and every one
	// whose adjacency changed, the surviving neighbours of a deleted vertex
	// included: all that graph.Reorient needs to patch the previous view.
	Touched map[graph.VertexID]struct{}
}

// Apply mutates g in place, maintains the block aggregates, re-runs the
// greedy placement on the updated aggregates, and advances the epoch. The
// returned DirtyWorkers marks exactly the workers whose local vertex set
// or vertex structure changed: owners (old and new) of every touched
// vertex, plus both sides of every block that moved.
func (s *State) Apply(g *graph.Graph, b Batch) (*ApplyInfo, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkNotEmptying(g, b); err != nil {
		return nil, err
	}

	touched := make(map[graph.VertexID]struct{}, 2*len(b.Ops))
	old, oldBlocks := s.assign, s.blocks
	stats := applyBatch(g, b, s.agg, touched)
	s.blocks = s.agg.Place(s.k)
	s.assign = s.agg.Assign(g, s.k, s.blocks)
	s.epoch++

	dirty := make([]bool, s.k)
	markW := func(w int) {
		if w >= 0 && w < s.k {
			dirty[w] = true
		}
	}
	dirtyBlocks := make(map[int64]struct{})
	for id := range touched {
		dirtyBlocks[int64(id)>>s.aggShift()] = struct{}{}
		markW(old.Owner(id))
		markW(s.assign.Owner(id))
	}
	moved := 0
	for blk, w := range oldBlocks {
		nw, ok := s.blocks[blk]
		if !ok {
			moved++ // block emptied out
			markW(w)
		} else if nw != w {
			moved++
			markW(w)
			markW(nw)
		}
	}
	for blk, nw := range s.blocks {
		if _, ok := oldBlocks[blk]; !ok {
			moved++ // brand-new block
			markW(nw)
		}
	}

	return &ApplyInfo{
		Epoch:        s.epoch,
		Stats:        stats,
		DirtyBlocks:  len(dirtyBlocks),
		MovedBlocks:  moved,
		DirtyWorkers: dirty,
		Touched:      touched,
	}, nil
}

func (s *State) aggShift() uint { return s.agg.Shift }

// checkNotEmptying rejects a batch that would delete every vertex: several
// consumers (jobspec exemplar lookups, CSR seeding) assume a non-empty
// resident graph, and an operator emptying the graph is a mistake, not a
// workload. Only batches that could possibly empty the graph pay for the
// simulation.
func (s *State) checkNotEmptying(g *graph.Graph, b Batch) error {
	dels := 0
	for _, m := range b.Ops {
		if m.Op == OpDelVertex {
			dels++
		}
	}
	if dels < g.NumVertices() {
		return nil
	}
	alive := make(map[graph.VertexID]struct{}, g.NumVertices()) // by external ID, as ops name them
	g.ForEach(func(v *graph.Vertex) bool {
		alive[g.External(v.ID)] = struct{}{}
		return true
	})
	for _, m := range b.Ops {
		switch m.Op {
		case OpAddVertex:
			alive[m.ID] = struct{}{}
		case OpAddEdge:
			alive[m.U] = struct{}{}
			alive[m.W] = struct{}{}
		case OpDelVertex:
			delete(alive, m.ID)
		}
	}
	if len(alive) == 0 {
		return fmt.Errorf("dyngraph: batch would delete every vertex")
	}
	return nil
}
