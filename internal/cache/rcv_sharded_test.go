package cache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gminer/internal/graph"
	"gminer/internal/metrics"
)

// shardCounts is the sweep every semantics test runs at: 1 pins the
// paper's original single-lock behavior, 4 and 16 exercise the sharded
// variants with and without capacity remainders.
var shardCounts = []int{1, 4, 16}

// sameShardIDs returns n distinct vertex IDs that all map to the shard
// of seed, so tests can reason about per-shard eviction order and
// blocking regardless of the shard count.
func sameShardIDs(c *RCV, seed graph.VertexID, n int) []graph.VertexID {
	target := c.shardFor(seed)
	out := make([]graph.VertexID, 0, n)
	for id := seed; len(out) < n; id++ {
		if c.shardFor(id) == target {
			out = append(out, id)
		}
	}
	return out
}

func TestNewShardedShardAndCapacitySplit(t *testing.T) {
	cases := []struct {
		capacity, shards, wantShards int
	}{
		{16, 1, 1},
		{16, 4, 4},
		{16, 5, 4}, // rounded down to a power of two
		{16, 16, 16},
		{2, 16, 2}, // shards clamped to capacity
		{0, 0, 1},  // degenerate inputs clamp to 1/1
		{10, 4, 4}, // capacity remainder spread over first shards
	}
	for _, tc := range cases {
		c := NewSharded(tc.capacity, tc.shards, nil)
		if c.Shards() != tc.wantShards {
			t.Errorf("NewSharded(%d,%d): shards=%d want %d",
				tc.capacity, tc.shards, c.Shards(), tc.wantShards)
		}
		wantCap := tc.capacity
		if wantCap < 1 {
			wantCap = 1
		}
		if c.Capacity() != wantCap {
			t.Errorf("NewSharded(%d,%d): capacity=%d want %d",
				tc.capacity, tc.shards, c.Capacity(), wantCap)
		}
		sum := 0
		for _, s := range c.shards {
			if s.capacity < 1 {
				t.Errorf("NewSharded(%d,%d): shard capacity %d < 1",
					tc.capacity, tc.shards, s.capacity)
			}
			sum += s.capacity
		}
		if sum != wantCap {
			t.Errorf("NewSharded(%d,%d): shard capacities sum to %d want %d",
				tc.capacity, tc.shards, sum, wantCap)
		}
	}
}

// TestNewShardedAllocatesOnDemand: capacity bounds a cache, it does not size
// one. Every worker of every job builds a cache of the configured capacity
// (8192 by default) whatever the graph; preallocating each shard map at its
// capacity cost ~200 KB a worker a job, even on a graph of 512 vertices.
func TestNewShardedAllocatesOnDemand(t *testing.T) {
	// The least of a few tries, so a stray allocation elsewhere in the
	// process cannot fail the bound.
	least := ^uint64(0)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewSharded(8192, 16, nil)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 16<<10 {
		t.Fatalf("NewSharded(8192, 16) allocated %d bytes up front, want < 16 KiB", least)
	}
}

// TestShardedRefcountInvariants: Acquire/Release reference counting must
// behave identically at every shard count.
func TestShardedRefcountInvariants(t *testing.T) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := NewSharded(16*n, n, nil)
			steps := []struct {
				op   string
				id   graph.VertexID
				want int // refcount after the step; -1 = not cached
			}{
				{"insert", 1, 1},
				{"acquire", 1, 2},
				{"insert", 1, 3}, // duplicate insert adds a reference
				{"release", 1, 2},
				{"release", 1, 1},
				{"release", 1, 0},
				{"release", 1, 0},   // over-release of a zero-ref entry is ignored
				{"release", 99, -1}, // unknown id is a no-op
				{"acquire", 1, 1},   // zero-ref entry is re-referenced, not gone
			}
			for i, st := range steps {
				switch st.op {
				case "insert":
					if !c.Insert(v(st.id)) {
						t.Fatalf("step %d: insert failed", i)
					}
				case "acquire":
					if _, ok := c.Acquire(st.id); !ok {
						t.Fatalf("step %d: acquire missed", i)
					}
				case "release":
					c.Release(st.id)
				}
				if got := c.Refs(st.id); got != st.want {
					t.Fatalf("step %d (%s %d): refs=%d want %d", i, st.op, st.id, got, st.want)
				}
			}
		})
	}
}

// TestShardedLazyEvictionOrderWithinShard: within one shard, eviction
// must replace the oldest zero-referenced vertex, in Release order, and
// never a referenced one — the paper's lazy model, per shard.
func TestShardedLazyEvictionOrderWithinShard(t *testing.T) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			// Every shard gets capacity 4.
			c := NewSharded(4*n, n, nil)
			ids := sameShardIDs(c, 0, 7)
			a, b, x, y, e, f, extra := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]
			for _, id := range []graph.VertexID{a, b, x, y} {
				if !c.Insert(v(id)) {
					t.Fatal("insert failed")
				}
			}
			// Release in order b, a: zero-ref FIFO is [b, a]; x, y stay
			// referenced.
			c.Release(b)
			c.Release(a)
			// Shard full: inserting e evicts b (oldest zero-ref), not a.
			if !c.TryInsert(v(e)) {
				t.Fatal("TryInsert should evict a zero-ref entry")
			}
			if _, ok := c.Peek(b); ok {
				t.Fatal("b should have been evicted first (oldest zero-ref)")
			}
			if _, ok := c.Peek(a); !ok {
				t.Fatal("a released later must survive b's eviction")
			}
			// Next insert evicts a; the referenced x and y must survive.
			if !c.TryInsert(v(f)) {
				t.Fatal("TryInsert should evict the remaining zero-ref entry")
			}
			if _, ok := c.Peek(a); ok {
				t.Fatal("a should be evicted second")
			}
			for _, id := range []graph.VertexID{x, y, e, f} {
				if _, ok := c.Peek(id); !ok {
					t.Fatalf("referenced vertex %d evicted", id)
				}
			}
			// Everything referenced: a same-shard TryInsert must fail.
			if c.TryInsert(v(extra)) {
				t.Fatal("TryInsert must fail when the shard is full of referenced vertices")
			}
		})
	}
}

// TestShardedFullOfReferencedBlocksAndWakes: Insert into a shard full of
// referenced vertices sleeps until a Release in that shard; Releases in
// other shards must not produce space (per-shard capacity), and Close
// must wake the sleeper.
func TestShardedFullOfReferencedBlocksAndWakes(t *testing.T) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := NewSharded(n, n, nil) // every shard: capacity 1
			ids := sameShardIDs(c, 0, 3)
			held, blocked, third := ids[0], ids[1], ids[2]
			if !c.Insert(v(held)) {
				t.Fatal("insert failed")
			}
			done := make(chan bool, 1)
			go func() { done <- c.Insert(v(blocked)) }()
			select {
			case <-done:
				t.Fatal("Insert should block: shard full of referenced vertices")
			case <-time.After(10 * time.Millisecond):
			}
			if n > 1 {
				// A release in a different shard frees no space here.
				other := graph.VertexID(0)
				for c.shardFor(other) == c.shardFor(held) {
					other++
				}
				c.Insert(v(other))
				c.Release(other)
				select {
				case <-done:
					t.Fatal("Insert woke on a foreign shard's release")
				case <-time.After(10 * time.Millisecond):
				}
			}
			c.Release(held)
			select {
			case ok := <-done:
				if !ok {
					t.Fatal("insert failed after release")
				}
			case <-time.After(time.Second):
				t.Fatal("Insert never unblocked after same-shard release")
			}
			// Close wakes a fresh sleeper (the global wakeup). third is in
			// the same (full, referenced) shard, so this Insert sleeps too.
			go func() { done <- c.Insert(v(third)) }()
			time.Sleep(5 * time.Millisecond)
			c.Close()
			select {
			case ok := <-done:
				if ok {
					t.Fatal("Insert should fail after Close")
				}
			case <-time.After(time.Second):
				t.Fatal("Close did not wake the blocked Insert")
			}
		})
	}
}

// TestShardedCapacityBound: under churn the cache never exceeds its total
// capacity (modulo ForceInsert overflow, which must shed on release).
func TestShardedCapacityBound(t *testing.T) {
	for _, n := range shardCounts {
		c := NewSharded(64, n, nil)
		for i := 0; i < 1000; i++ {
			id := graph.VertexID(i)
			if !c.TryInsert(v(id)) {
				c.ForceInsert(v(id))
			}
			c.Release(id)
		}
		if c.Len() > 64 {
			t.Fatalf("shards=%d: len=%d exceeds capacity 64 after churn", n, c.Len())
		}
		if c.Bytes() <= 0 {
			t.Fatalf("shards=%d: bytes accounting broken: %d", n, c.Bytes())
		}
	}
}

// TestShardedConcurrentStress is the -race stress test: concurrent
// Acquire/Insert/TryInsert/ForceInsert/Release/Peek across shards, with
// blocking Inserts kept live by a releaser, at every shard count.
func TestShardedConcurrentStress(t *testing.T) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c := NewSharded(128, n, &metrics.Counters{})
			const goroutines = 8
			const iters = 2000
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						id := graph.VertexID((g*iters + i) % 256)
						switch i % 4 {
						case 0:
							if _, ok := c.Acquire(id); !ok {
								if !c.TryInsert(v(id)) {
									c.ForceInsert(v(id))
								}
							}
							c.Release(id)
						case 1:
							if !c.TryInsert(v(id)) {
								c.ForceInsert(v(id))
							}
							c.Release(id)
						case 2:
							c.Peek(id)
							c.Refs(id)
						case 3:
							_ = c.Len()
							_ = c.Bytes()
						}
					}
				}(g)
			}
			wg.Wait()
			if c.Len() > 129 {
				t.Fatalf("cache exceeded capacity bound after stress: %d", c.Len())
			}
		})
	}
}
