package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gminer/internal/graph"
	"gminer/internal/metrics"
)

// slot reports, for an insert of id, whether its shard is full (and id not
// cached in it) and whether it has a zero-ref entry to evict.
func slot(c *RCV, id graph.VertexID) (full, evictable bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, cached := s.entries[id]
	return !cached && len(s.entries) >= s.capacity, s.zeroHead != nil
}

// TestPinnedExact drives a seeded mix of every reference-taking and
// -dropping call against a model of the references the test holds: after
// each call Pinned() is the number of vertices with at least one, and every
// ForceInsert into a full shard was counted as an overflow.
func TestPinnedExact(t *testing.T) {
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			counters := &metrics.Counters{}
			c := NewSharded(32, shards, counters)
			rng := rand.New(rand.NewSource(int64(shards)))
			held := map[graph.VertexID]int{}
			var overflows int64
			for step := 0; step < 20000; step++ {
				id := graph.VertexID(rng.Intn(96))
				switch rng.Intn(6) {
				case 0:
					if _, ok := c.Acquire(id); ok {
						held[id]++
					}
				case 1:
					// Insert would sleep on a shard full of referenced vertices.
					if full, evictable := slot(c, id); (!full || evictable) && c.Insert(v(id)) {
						held[id]++
					}
				case 2:
					if c.TryInsert(v(id)) {
						held[id]++
					}
				case 3:
					if full, _ := slot(c, id); full {
						overflows++
					}
					c.ForceInsert(v(id))
					held[id]++
				default:
					// Releasing an unheld vertex must change nothing.
					c.Release(id)
					if held[id] > 0 {
						held[id]--
					}
				}
				want := 0
				for _, n := range held {
					if n > 0 {
						want++
					}
				}
				if got := c.Pinned(); got != want {
					t.Fatalf("step %d: Pinned() = %d, want %d", step, got, want)
				}
			}
			if got := counters.Snapshot().CacheOverflows; got != overflows || overflows == 0 {
				t.Fatalf("%d overflows counted, want %d (> 0)", got, overflows)
			}
		})
	}
}

// TestPinnedConcurrent takes and drops references from many goroutines at
// once, round after round: at each barrier Pinned() equals the vertices with
// a positive count, and once every reference is back it is zero and the
// overflow is shed.
func TestPinnedConcurrent(t *testing.T) {
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := NewSharded(64, shards, &metrics.Counters{})
			const goroutines, per = 8, 24
			for round := 0; round < 50; round++ {
				held := make([][]graph.VertexID, goroutines)
				var wg sync.WaitGroup
				for g := range held {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(round*goroutines + g)))
						for len(held[g]) < per {
							id := graph.VertexID(rng.Intn(128))
							switch rng.Intn(3) {
							case 0:
								if _, ok := c.Acquire(id); !ok {
									continue
								}
							case 1:
								if !c.TryInsert(v(id)) {
									continue
								}
							default:
								c.ForceInsert(v(id))
							}
							held[g] = append(held[g], id)
							_ = c.Pinned()
						}
					}(g)
				}
				wg.Wait()
				want := 0
				for id := graph.VertexID(0); id < 128; id++ {
					if c.Refs(id) > 0 {
						want++
					}
				}
				if got := c.Pinned(); got != want {
					t.Fatalf("round %d: Pinned() = %d, %d vertices referenced", round, got, want)
				}
				for g := range held {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						c.Release(held[g]...)
					}(g)
				}
				wg.Wait()
				if got := c.Pinned(); got != 0 {
					t.Fatalf("round %d: Pinned() = %d with every reference released", round, got)
				}
				if c.Len() > 64 {
					t.Fatalf("round %d: %d entries after every release, capacity 64", round, c.Len())
				}
			}
		})
	}
}
