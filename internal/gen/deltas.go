package gen

import (
	"math/rand"

	"gminer/internal/dyngraph"
	"gminer/internal/graph"
)

// DeltasConfig parameterizes a generated mutation stream.
type DeltasConfig struct {
	Batches int   // number of batches (default 4)
	Ops     int   // ops per batch (default 32)
	Seed    int64 // stream seed
}

func (c *DeltasConfig) defaults() {
	if c.Batches <= 0 {
		c.Batches = 4
	}
	if c.Ops <= 0 {
		c.Ops = 32
	}
}

// Deltas generates a seeded, replayable mutation stream for g: a mix of
// edge insertions (between existing vertices), edge deletions (sampled
// from g's initial adjacency), fresh-vertex insertions (annotated to match
// g: labeled iff g is labeled, attributed iff g is attributed) immediately
// wired into the graph, and vertex deletions.
//
// The stream is a pure function of (g's initial vertex set and adjacency,
// cfg): it never consults the evolving graph, so the same call on an
// identically built graph yields the same batches — ops that turn out to
// be no-ops at apply time (deleting an already-deleted edge) are counted
// but harmless, which is what makes the stream replayable.
func Deltas(g *graph.Graph, cfg DeltasConfig) []dyngraph.Batch {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Ops name external IDs; g's vertices are picked, and read, by internal
	// ID.
	ids, ext := g.IDs(), g.External
	if len(ids) == 0 {
		return nil
	}
	var maxID graph.VertexID
	for _, id := range ids {
		maxID = max(maxID, ext(id))
	}
	nextID := maxID + 1
	labels := int32(0)
	if g.Labeled() {
		g.ForEach(func(v *graph.Vertex) bool {
			if v.Label >= labels {
				labels = v.Label + 1
			}
			return true
		})
	}
	attrDim, attrMax := 0, int32(0)
	if g.Attributed() {
		g.ForEach(func(v *graph.Vertex) bool {
			if len(v.Attrs) > attrDim {
				attrDim = len(v.Attrs)
			}
			for _, a := range v.Attrs {
				if a >= attrMax {
					attrMax = a + 1
				}
			}
			return true
		})
	}

	pick := func() graph.VertexID { return ids[rng.Intn(len(ids))] }
	// born tracks stream-created vertices so edge ops can target them too.
	var born []graph.VertexID
	pickAny := func() graph.VertexID {
		if len(born) > 0 && rng.Float64() < 0.25 {
			return born[rng.Intn(len(born))]
		}
		return ext(pick())
	}

	batches := make([]dyngraph.Batch, 0, cfg.Batches)
	for bi := 0; bi < cfg.Batches; bi++ {
		var ops []dyngraph.Mutation
		for len(ops) < cfg.Ops {
			switch r := rng.Float64(); {
			case r < 0.40: // edge insertion
				u, w := pickAny(), pickAny()
				if u == w {
					continue
				}
				ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: u, W: w})
			case r < 0.75: // edge deletion, sampled from initial adjacency
				u := pick()
				adj := g.Vertex(u).Adj
				if len(adj) == 0 {
					continue
				}
				ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpDelEdge, U: ext(u), W: ext(adj[rng.Intn(len(adj))])})
			case r < 0.92: // fresh vertex, immediately wired in
				id := nextID
				nextID++
				m := dyngraph.Mutation{Op: dyngraph.OpAddVertex, ID: id}
				if labels > 0 {
					l := rng.Int31n(labels)
					m.Label = &l
				}
				if attrDim > 0 {
					m.Attrs = make([]int32, 1+rng.Intn(attrDim))
					for i := range m.Attrs {
						m.Attrs[i] = rng.Int31n(attrMax)
					}
				}
				ops = append(ops, m, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: id, W: ext(pick())})
				born = append(born, id)
			default: // vertex deletion
				ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpDelVertex, ID: ext(pick())})
			}
		}
		batches = append(batches, dyngraph.Batch{Ops: ops})
	}
	return batches
}
