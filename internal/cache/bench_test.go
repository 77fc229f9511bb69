package cache

import (
	"fmt"
	"testing"

	"gminer/internal/graph"
)

func BenchmarkAcquireHit(b *testing.B) {
	c := New(1024, nil)
	for i := 0; i < 1024; i++ {
		c.Insert(v(graph.VertexID(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Acquire(graph.VertexID(i % 1024))
		c.Release(graph.VertexID(i % 1024))
	}
}

func BenchmarkAcquireMiss(b *testing.B) {
	c := New(64, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Acquire(graph.VertexID(1 << 40)) // never present
	}
}

func BenchmarkInsertEvictCycle(b *testing.B) {
	c := New(128, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := graph.VertexID(i)
		c.TryInsert(v(id))
		c.Release(id)
	}
}

// BenchmarkAcquireParallel is the contention benchmark behind the shard
// design: GOMAXPROCS goroutines hammering Acquire/Release on a hot set,
// at the paper's single-lock configuration (shards=1) and sharded.
func BenchmarkAcquireParallel(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := NewSharded(4096, shards, nil)
			for i := 0; i < 4096; i++ {
				c.Insert(v(graph.VertexID(i)))
				c.Release(graph.VertexID(i))
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					id := graph.VertexID(i % 4096)
					i++
					c.Acquire(id)
					c.Release(id)
				}
			})
		})
	}
}

func BenchmarkMixedWorkload(b *testing.B) {
	// 80% hits over a hot set, 20% insert+evict churn: the retriever's
	// steady-state pattern.
	c := New(256, nil)
	for i := 0; i < 200; i++ {
		c.Insert(v(graph.VertexID(i)))
		c.Release(graph.VertexID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%5 == 0 {
			id := graph.VertexID(1000 + i)
			c.TryInsert(v(id))
			c.Release(id)
		} else {
			id := graph.VertexID(i % 200)
			c.Acquire(id)
			c.Release(id)
		}
	}
}
