package wire_test

import (
	"testing"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/wire"
)

// encodeSink keeps the encoded length observable so the compiler cannot
// elide the encode work under testing.AllocsPerRun.
var encodeSink int

// TestPooledEncodeAllocs holds the three wire paths the runtime pools —
// pull responses (worker.servePull), task batches (migration and spill
// framing) and pull requests (flushPulls) — to their allocation win: the
// pooled GetWriter/PutWriter round trip allocates at least 30% less per
// message than a fresh Writer, and no more than it does today (nothing,
// once the pool is warm and the capacity hint covers the message).
func TestPooledEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2_000, Seed: 42})
	var verts []*graph.Vertex
	var ids []graph.VertexID
	for i := 0; len(verts) < 64 && i < g.NumVertices(); i++ {
		v := g.VertexAt(i)
		verts = append(verts, v)
		ids = append(ids, v.ID)
	}
	var tasks []*core.Task
	for i := 0; i < 16; i++ {
		task := &core.Task{ID: uint64(i), Round: 1, Cands: ids[:8]}
		task.Subgraph.AddVertices(ids[i], ids[i+1], ids[i+2])
		task.Subgraph.AddEdge(ids[i], ids[i+1])
		task.Subgraph.AddEdge(ids[i+1], ids[i+2])
		tasks = append(tasks, task)
	}

	for _, p := range []struct {
		name      string
		hint      int
		maxPooled float64
		fill      func(w *wire.Writer)
	}{
		{"pull_resp", 64 + 32*len(verts), 0, func(w *wire.Writer) {
			w.Uvarint(uint64(len(verts)))
			for _, v := range verts {
				wire.EncodeVertex(w, v)
			}
		}},
		{"task_batch", 1 << 12, 0, func(w *wire.Writer) {
			w.Uvarint(uint64(len(tasks)))
			for _, task := range tasks {
				core.EncodeTask(w, task, core.NoContext{})
			}
		}},
		{"pull_req", 16 + 10*len(ids), 0, func(w *wire.Writer) {
			wire.EncodeIDs(w, ids)
		}},
	} {
		fresh := testing.AllocsPerRun(200, func() {
			w := wire.NewWriter(p.hint)
			p.fill(w)
			encodeSink += w.Len()
		})
		// Warm the pool so the steady state is measured, as in the worker.
		wire.PutWriter(wire.GetWriter(p.hint))
		pooled := testing.AllocsPerRun(200, func() {
			w := wire.GetWriter(p.hint)
			p.fill(w)
			encodeSink += w.Len()
			wire.PutWriter(w)
		})
		if pooled > p.maxPooled {
			t.Errorf("%s: pooled encode makes %.2f allocs per message, want ≤ %.2f", p.name, pooled, p.maxPooled)
		}
		if fresh == 0 || pooled > 0.7*fresh {
			t.Errorf("%s: pooled %.2f vs fresh %.2f allocs per message, want ≥ 30%% fewer", p.name, pooled, fresh)
		}
	}
}
