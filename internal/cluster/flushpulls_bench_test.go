package cluster

import (
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/transport"
)

// discardEndpoint swallows sends so flush benchmarks measure the encode
// path, not mailbox growth.
type discardEndpoint struct{ transport.Endpoint }

func (discardEndpoint) Send(int, uint8, []byte) error { return nil }

// newBenchWorker builds a worker over a small 4-partition graph without
// starting its goroutines.
func newBenchWorker(tb testing.TB) *Worker {
	tb.Helper()
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 17})
	cfg := Config{Workers: 4, Threads: 1, progressInterval: time.Millisecond}.Defaults()
	assign, err := partition.Hash{}.Partition(g, 4)
	if err != nil {
		tb.Fatal(err)
	}
	vt := newVertexTables(g, assign, allWorkers(4))
	net := transport.NewLocal(transport.LocalConfig{Nodes: 5})
	tb.Cleanup(func() { net.Close() })
	w, err := newWorker(0, cfg, algo.NewTriangleCount(), vt.dir, vt.locals[0], net.Endpoint(0),
		&metrics.Counters{}, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	w.ep = discardEndpoint{}
	return w
}

// BenchmarkFlushPulls measures the retriever's pull-request flush: 64
// vertex IDs batched toward 3 remote owners per flush, the steady-state
// shape dispatch produces. The batch map, its per-owner slices and the
// encode buffers are all recycled, so allocs/op stays near zero where
// the old implementation paid a fresh map, fresh slices and a growing
// wire.Writer per flush.
func BenchmarkFlushPulls(b *testing.B) {
	w := newBenchWorker(b)
	fill := func() {
		w.pendMu.Lock()
		for i := 0; i < 64; i++ {
			owner := 1 + i%3 // remote owners only
			id := graph.VertexID(1000 + i)
			w.pullBatch[owner] = append(w.pullBatch[owner], id)
			w.pullCount++
		}
		w.pendMu.Unlock()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		w.flushPulls()
	}
}

// BenchmarkFlushPullsBaseline is the pre-optimization shape of the same
// flush — fresh map, fresh per-owner slices, fresh encode buffer — kept
// as the comparison point for BenchmarkFlushPulls' allocations.
func BenchmarkFlushPullsBaseline(b *testing.B) {
	w := newBenchWorker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make(map[int][]graph.VertexID)
		for j := 0; j < 64; j++ {
			owner := 1 + j%3
			batch[owner] = append(batch[owner], graph.VertexID(1000+j))
		}
		for owner, ids := range batch {
			_ = w.ep.Send(owner, msgPullReq, encodePullReq(ids))
		}
	}
}
