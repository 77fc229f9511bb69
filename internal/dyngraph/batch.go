// Package dyngraph is the dynamic-graph subsystem: a batched mutation
// model over the frozen resident graph, incremental maintenance of the
// Blocked partition aggregates, and the dirty-vertex machinery standing
// mining jobs use to compute per-epoch match deltas.
//
// The unit of change is a Batch of edge/vertex insertions and deletions.
// Each applied batch advances the graph epoch by exactly one; ops inside a
// batch apply in order and are individually idempotent (inserting a
// present edge or deleting an absent vertex is a counted no-op), so a
// mutation stream is replayable: applying the same batches to an
// identically built graph reproduces the same graph, byte for byte.
package dyngraph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gminer/internal/graph"
	"gminer/internal/partition"
)

// Op kinds accepted in a mutation batch.
const (
	OpAddEdge   = "add-edge"
	OpDelEdge   = "del-edge"
	OpAddVertex = "add-vertex"
	OpDelVertex = "del-vertex"
)

// Decoder clamps: a batch is a control-plane message, not a bulk-load
// path, so the limits are deliberately tight.
const (
	MaxBatchBytes = 4 << 20 // wire size of one batch
	MaxBatchOps   = 65536   // ops per batch
	MaxOpAttrs    = 64      // attribute values on an add-vertex
)

// Mutation is one op. Edge ops use U/W; vertex ops use ID. Label is a
// pointer so that "no label" (graph.NoLabel) is distinguishable from the
// valid label 0.
type Mutation struct {
	Op    string         `json:"op"`
	U     graph.VertexID `json:"u,omitempty"`
	W     graph.VertexID `json:"w,omitempty"`
	ID    graph.VertexID `json:"id,omitempty"`
	Label *int32         `json:"label,omitempty"`
	Attrs []int32        `json:"attrs,omitempty"`
}

// Batch is an ordered list of mutations applied atomically under one
// graph epoch.
type Batch struct {
	Ops []Mutation `json:"ops"`
}

// Validate checks structural well-formedness (op kinds, self-loops,
// clamps). It does not consult a graph: presence/absence is resolved at
// apply time.
func (b *Batch) Validate() error {
	if len(b.Ops) == 0 {
		return fmt.Errorf("dyngraph: empty batch")
	}
	if len(b.Ops) > MaxBatchOps {
		return fmt.Errorf("dyngraph: batch has %d ops (max %d)", len(b.Ops), MaxBatchOps)
	}
	for i, m := range b.Ops {
		switch m.Op {
		case OpAddEdge, OpDelEdge:
			if m.U == m.W {
				return fmt.Errorf("dyngraph: op %d: self-loop {%d,%d}", i, m.U, m.W)
			}
		case OpAddVertex:
			if len(m.Attrs) > MaxOpAttrs {
				return fmt.Errorf("dyngraph: op %d: %d attrs (max %d)", i, len(m.Attrs), MaxOpAttrs)
			}
			for j, a := range m.Attrs {
				if a < 0 {
					return fmt.Errorf("dyngraph: op %d: negative attr %d at %d", i, a, j)
				}
			}
			if m.Label != nil && *m.Label < graph.NoLabel {
				return fmt.Errorf("dyngraph: op %d: invalid label %d", i, *m.Label)
			}
		case OpDelVertex:
			// ID-only, nothing further to check.
		default:
			return fmt.Errorf("dyngraph: op %d: unknown op %q", i, m.Op)
		}
	}
	return nil
}

// DecodeBatch reads one JSON batch from r, enforcing the wire clamps. It
// is the decoder behind POST /graph/mutations and is fuzzed.
func DecodeBatch(r io.Reader) (Batch, error) {
	var b Batch
	dec := json.NewDecoder(io.LimitReader(r, MaxBatchBytes+1))
	if err := dec.Decode(&b); err != nil {
		return Batch{}, fmt.Errorf("dyngraph: bad batch: %w", err)
	}
	if dec.More() {
		return Batch{}, fmt.Errorf("dyngraph: trailing data after batch")
	}
	if err := b.Validate(); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// DirtyIDs returns the sorted, deduplicated set of vertex IDs named by the
// batch: edge endpoints and vertex-op targets. It is what the dirty-rooted
// delta paths (TrianglesTouching, Ball) are sound over:
//
//   - every vertex the batch creates, deletes or re-creates is in the set;
//   - an edge the batch ADDS has both endpoints in it, and so has an edge
//     a del-edge removes;
//   - only del-vertex changes an edge with a single dirty end — an edge to
//     a neighbour the batch never names — and such an edge exists in the
//     graph as it was before the batch.
//
// In particular every changed edge has at least one endpoint in the set.
func (b *Batch) DirtyIDs() []graph.VertexID {
	seen := make(map[graph.VertexID]struct{}, 2*len(b.Ops))
	for _, m := range b.Ops {
		switch m.Op {
		case OpAddEdge, OpDelEdge:
			seen[m.U] = struct{}{}
			seen[m.W] = struct{}{}
		case OpAddVertex, OpDelVertex:
			seen[m.ID] = struct{}{}
		}
	}
	out := make([]graph.VertexID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ApplyStats summarizes what a batch actually did to the graph.
type ApplyStats struct {
	Ops             int `json:"ops"`
	EdgesAdded      int `json:"edges_added"`
	EdgesRemoved    int `json:"edges_removed"`
	VerticesAdded   int `json:"vertices_added"`
	VerticesRemoved int `json:"vertices_removed"`
	NoOps           int `json:"noops"`
}

// applyBatch applies b to the frozen graph g in op order, mirroring every
// effective change into agg (when non-nil) and recording every vertex
// whose structure changed into touched (when non-nil): edge endpoints,
// created/deleted vertices, and the surviving neighbors of deleted
// vertices (their adjacency shrank too).
func applyBatch(g *graph.Graph, b Batch, agg *partition.BlockAgg, touched map[graph.VertexID]struct{}) ApplyStats {
	stats := ApplyStats{Ops: len(b.Ops)}
	mark := func(id graph.VertexID) {
		if touched != nil {
			touched[id] = struct{}{}
		}
	}
	ensure := func(id graph.VertexID) {
		if g.DynAddVertex(id, graph.NoLabel, nil) {
			stats.VerticesAdded++
			if agg != nil {
				agg.AddVertex(id)
			}
			mark(id)
		}
	}
	for _, m := range b.Ops {
		switch m.Op {
		case OpAddEdge:
			if m.U == m.W {
				stats.NoOps++
				continue
			}
			// Missing endpoints are created implicitly, unlabeled — the
			// streaming analogue of the builder's AddEdge.
			ensure(m.U)
			ensure(m.W)
			if g.DynAddEdge(m.U, m.W) {
				stats.EdgesAdded++
				if agg != nil {
					agg.AddEdge(m.U, m.W)
				}
				mark(m.U)
				mark(m.W)
			} else {
				stats.NoOps++
			}
		case OpDelEdge:
			if g.DynDelEdge(m.U, m.W) {
				stats.EdgesRemoved++
				if agg != nil {
					agg.DelEdge(m.U, m.W)
				}
				mark(m.U)
				mark(m.W)
			} else {
				stats.NoOps++
			}
		case OpAddVertex:
			label := graph.NoLabel
			if m.Label != nil {
				label = *m.Label
			}
			if g.DynAddVertex(m.ID, label, m.Attrs) {
				stats.VerticesAdded++
				if agg != nil {
					agg.AddVertex(m.ID)
				}
				mark(m.ID)
			} else {
				stats.NoOps++
			}
		case OpDelVertex:
			if removed, ok := g.DynDelVertex(m.ID); ok {
				stats.VerticesRemoved++
				stats.EdgesRemoved += len(removed)
				if agg != nil {
					agg.DelVertex(m.ID)
				}
				mark(m.ID)
				for _, nb := range removed {
					if agg != nil {
						agg.DelEdge(m.ID, nb)
					}
					mark(nb)
				}
			} else {
				stats.NoOps++
			}
		}
	}
	g.DynCompact()
	return stats
}

// ApplyToGraph applies b to a frozen graph with no aggregate maintenance —
// the replay path used to build from-scratch comparison graphs in the
// differential suites and the benchmark's dynamic workload.
func ApplyToGraph(g *graph.Graph, b Batch) ApplyStats {
	return applyBatch(g, b, nil, nil)
}
