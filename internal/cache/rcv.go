// Package cache implements the Reference-Counting Vertex (RCV) cache of
// §4.3/§7: remote vertices pulled by the candidate retriever are cached
// with a reference count of the ready/active tasks referring to them.
// Eviction is lazy — a vertex whose count drops to zero moves to the tail
// of an eviction list but is only replaced when the cache is full, because
// "even a vertex with r = 0 could be referred again by a subsequent task".
// If the cache is full and every entry is referenced, the retriever goes
// to sleep until some task finishes a round and releases its references.
// Pinned counts the referenced entries; the retriever's CMQ window is
// bounded by it (DESIGN.md §5).
//
// The paper describes one cache per worker guarded by one lock; here the
// cache is split into power-of-two shards keyed by a hash of the vertex
// ID, so executor threads and the pull-response path do not serialize on
// a single mutex. Each shard is an independent RCV cache with its own
// capacity slice, zero-ref eviction list and full-of-referenced sleep:
// an Insert of vertex v can only be satisfied by space in shard(v), so
// waiting on that shard's condition variable preserves the paper's sleep
// semantics exactly, per shard. Close wakes every shard (the global
// wakeup). See DESIGN.md §5 for why per-shard lazy eviction preserves
// the paper's reference-counting semantics.
package cache

import (
	"sync"
	"sync/atomic"

	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/trace"
)

type entry struct {
	v   *graph.Vertex
	ref int
	// position in the zero-ref eviction list; nil while referenced.
	prev, next *entry
}

// shard is one independent slice of the cache: the original single-lock
// RCV structure, with its own capacity and sleep.
type shard struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	entries  map[graph.VertexID]*entry
	// zeroHead/zeroTail: intrusive FIFO of zero-ref entries; evict from
	// head (oldest zero-ref), insert at tail.
	zeroHead, zeroTail *entry
	closed             bool
	bytes              int64
	pinned             *atomic.Int64 // the cache's count of entries with ref > 0
}

// RCV is the reference-counting vertex cache. Safe for concurrent use.
type RCV struct {
	shards   []*shard
	mask     uint64
	capacity int
	// pinned is shared with every shard, and allocated apart from the RCV so
	// that nothing the cache owns points back into it: an RCV nobody holds
	// is then collectable even with a finalizer set on it (the retention
	// tests' probe).
	pinned   *atomic.Int64
	counters *metrics.Counters
	tr       trace.Handle
}

// DefaultShards is the shard count used by cluster configurations that
// leave it unset. Power of two; sized so 8–16 executor threads plus the
// pull-response path rarely collide on one shard lock.
const DefaultShards = 16

// New returns a single-shard RCV cache holding up to capacity vertices —
// the paper's original structure, and the reference semantics the sharded
// variant must preserve. counters may be nil.
func New(capacity int, counters *metrics.Counters) *RCV {
	return NewSharded(capacity, 1, counters)
}

// NewSharded returns an RCV cache of `shards` independent shards (rounded
// down to a power of two, clamped to [1, capacity]) holding up to
// capacity vertices in total. Capacity is split evenly across shards,
// with the remainder spread over the first shards so every shard holds at
// least one vertex. Capacity is a bound, not an allocation: shard maps
// start empty and grow with what is pulled, so a cache sized for the
// worst case costs what the job actually caches.
func NewSharded(capacity, shards int, counters *metrics.Counters) *RCV {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	// Round down to a power of two so shardFor can mask instead of mod.
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	c := &RCV{
		shards:   make([]*shard, n),
		mask:     uint64(n - 1),
		capacity: capacity,
		pinned:   new(atomic.Int64),
		counters: counters,
	}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		s := &shard{capacity: sc, entries: make(map[graph.VertexID]*entry), pinned: c.pinned}
		s.cond = sync.NewCond(&s.mu)
		c.shards[i] = s
	}
	return c
}

// shardFor maps a vertex ID to its shard. The multiplier is the 64-bit
// Fibonacci hashing constant (2^64/φ); using the top bits decorrelates
// the sequential IDs synthetic graphs produce.
func (c *RCV) shardFor(id graph.VertexID) *shard {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return c.shards[(h>>48)&c.mask]
}

// SetTrace attaches a trace handle; call before the cache is shared.
func (c *RCV) SetTrace(h trace.Handle) { c.tr = h }

// Capacity returns the configured total capacity.
func (c *RCV) Capacity() int { return c.capacity }

// Shards returns the shard count (introspection/tests).
func (c *RCV) Shards() int { return len(c.shards) }

// Bytes returns the estimated memory footprint of cached vertices.
func (c *RCV) Bytes() int64 {
	var total int64
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.bytes
		s.mu.Unlock()
	}
	return total
}

// Pinned returns the number of cached vertices some task holds a reference
// to. It is exact at any quiescent point and lock-free to read.
func (c *RCV) Pinned() int { return int(c.pinned.Load()) }

// Len returns the current number of cached vertices.
func (c *RCV) Len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// Acquire looks up id and, if present, increments its reference count and
// returns the vertex. Records a cache hit or miss.
func (c *RCV) Acquire(id graph.VertexID) (*graph.Vertex, bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		s.mu.Unlock()
		if c.counters != nil {
			c.counters.CacheMiss()
		}
		c.tr.Event(trace.EvCacheMiss, uint64(id))
		return nil, false
	}
	s.refLocked(e)
	v := e.v
	s.mu.Unlock()
	if c.counters != nil {
		c.counters.CacheHit()
	}
	c.tr.Event(trace.EvCacheHit, uint64(id))
	return v, true
}

func (s *shard) refLocked(e *entry) {
	if e.ref == 0 {
		s.zeroRemove(e)
		s.pinned.Add(1)
	}
	e.ref++
}

// addLocked caches v with the one reference its inserting task holds.
func (s *shard) addLocked(v *graph.Vertex) {
	s.entries[v.ID] = &entry{v: v, ref: 1}
	s.bytes += v.FootprintBytes()
	s.pinned.Add(1)
}

// evictLocked removes the oldest zero-ref entry of the shard.
func (s *shard) evictLocked(c *RCV) {
	victim := s.zeroHead
	s.zeroRemove(victim)
	delete(s.entries, victim.v.ID)
	s.bytes -= victim.v.FootprintBytes()
	c.tr.Event(trace.EvCacheEvict, uint64(victim.v.ID))
}

// Insert adds a pulled vertex with one reference held by the inserting
// task. If the vertex is already cached (a concurrent pull landed first),
// the existing entry gains a reference instead. Insert blocks while the
// vertex's shard is full of referenced vertices; it returns false if the
// cache is closed while waiting.
func (c *RCV) Insert(v *graph.Vertex) bool {
	s := c.shardFor(v.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return false
		}
		if e, ok := s.entries[v.ID]; ok {
			s.refLocked(e)
			return true
		}
		if len(s.entries) < s.capacity {
			break
		}
		// Full: replace the oldest zero-referenced vertex (lazy model).
		if s.zeroHead != nil {
			s.evictLocked(c)
			break
		}
		// "if there is no vertex with r = 0 ... go to sleep until some
		// tasks finish their computation and release the referred
		// vertices" (§7).
		s.cond.Wait()
	}
	s.addLocked(v)
	return true
}

// TryInsert is a non-blocking Insert: it returns false when the vertex's
// shard is full of referenced vertices instead of sleeping. Used by the
// pull response path, which must not block the worker's communication
// loop.
func (c *RCV) TryInsert(v *graph.Vertex) bool {
	s := c.shardFor(v.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if e, ok := s.entries[v.ID]; ok {
		s.refLocked(e)
		return true
	}
	if len(s.entries) >= s.capacity {
		if s.zeroHead == nil {
			return false
		}
		s.evictLocked(c)
	}
	s.addLocked(v)
	return true
}

// ForceInsert inserts v even beyond capacity. The runtime uses it as a
// last resort when a pull response lands while every cached vertex is
// referenced: blocking there (the paper's sleep) could deadlock the
// communication loop, so we overflow instead and shed the excess as
// references drain. Overflow entries are evicted by later TryInserts the
// same way as ordinary zero-ref entries. An insert past the shard's capacity
// is counted (metrics.Snapshot.CacheOverflows).
func (c *RCV) ForceInsert(v *graph.Vertex) {
	s := c.shardFor(v.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if e, ok := s.entries[v.ID]; ok {
		s.refLocked(e)
		return
	}
	if len(s.entries) >= s.capacity && c.counters != nil {
		c.counters.CacheOverflow()
	}
	s.addLocked(v)
}

// Release decrements the reference counts of the given vertices, called
// when a task referring to them completes a round of computation. IDs not
// present are ignored (they were local-partition vertices).
func (c *RCV) Release(ids ...graph.VertexID) {
	for _, id := range ids {
		s := c.shardFor(id)
		s.mu.Lock()
		e, ok := s.entries[id]
		if !ok || e.ref == 0 {
			s.mu.Unlock()
			continue
		}
		e.ref--
		released := false
		if e.ref == 0 {
			s.zeroAppend(e)
			s.pinned.Add(-1)
			released = true
		}
		// Shed ForceInsert overflow now that references drained.
		for len(s.entries) > s.capacity && s.zeroHead != nil {
			s.evictLocked(c)
		}
		if released {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// Peek returns the cached vertex without touching reference counts; used
// by the executor to resolve a ready task's remote candidates (whose
// references are already held).
func (c *RCV) Peek(id graph.VertexID) (*graph.Vertex, bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, false
	}
	return e.v, true
}

// Refs returns the current reference count of id (testing/introspection).
func (c *RCV) Refs(id graph.VertexID) int {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok {
		return e.ref
	}
	return -1
}

// Close unblocks any waiting Insert calls on every shard; subsequent
// Inserts fail.
func (c *RCV) Close() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// zeroAppend pushes e at the tail of the zero-ref list.
func (s *shard) zeroAppend(e *entry) {
	e.prev, e.next = s.zeroTail, nil
	if s.zeroTail != nil {
		s.zeroTail.next = e
	} else {
		s.zeroHead = e
	}
	s.zeroTail = e
}

// zeroRemove unlinks e from the zero-ref list.
func (s *shard) zeroRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.zeroHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.zeroTail = e.prev
	}
	e.prev, e.next = nil, nil
}
