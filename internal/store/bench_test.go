package store

import (
	"testing"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/spill"
)

func benchTasks(n int) []*core.Task {
	tasks := make([]*core.Task, n)
	for i := range tasks {
		t := &core.Task{ID: uint64(i)}
		t.Subgraph.AddVertex(graph.VertexID(i))
		for j := 0; j < 8; j++ {
			t.Cands = append(t.Cands, graph.VertexID((i*7+j*13)%512))
		}
		t.ToPull = t.Cands
		tasks[i] = t
	}
	return tasks
}

func benchStore(b *testing.B, cfg Config) {
	sp, _ := spill.New("", nil)
	defer sp.Close()
	s := New(cfg, core.NoContext{}, sp, nil)
	tasks := benchTasks(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert(tasks); err != nil {
			b.Fatal(err)
		}
		for range tasks {
			if _, ok := s.TryPop(); !ok {
				b.Fatal("pop failed")
			}
		}
	}
}

func BenchmarkInsertPopLSH(b *testing.B) {
	benchStore(b, Config{MemCapacity: 2048, LSHDims: 4})
}

func BenchmarkInsertPopFIFO(b *testing.B) {
	benchStore(b, Config{MemCapacity: 2048, LSHDims: 0})
}

func BenchmarkInsertPopSpilling(b *testing.B) {
	benchStore(b, Config{MemCapacity: 64, BlockCapacity: 32, LSHDims: 4})
}

func BenchmarkSnapshot(b *testing.B) {
	sp, _ := spill.New("", nil)
	defer sp.Close()
	s := New(Config{MemCapacity: 256, BlockCapacity: 128, LSHDims: 4}, core.NoContext{}, sp, nil)
	_ = s.Insert(benchTasks(1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
