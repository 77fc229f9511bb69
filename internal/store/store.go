// Package store implements the task store of the task-pipeline (§4.3,
// §7): all inactive tasks of a worker, held in a priority queue keyed by
// LSH signatures of their to_pull sets so that successively dequeued tasks
// share remote candidates (Figure 3). Only a bounded number of tasks stay
// in memory; the rest are spilled to fixed-capacity disk blocks, each with
// a key-range index, and loaded back when the in-memory head drains.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/metrics"
	"gminer/internal/spill"
	"gminer/internal/wire"
)

// item is one stored task. (key, seq) is the store's total order: seq is
// the arrival number, so equal keys leave in arrival order whether or not
// they went through a spill block in between.
type item struct {
	key lsh.Signature // nil when LSH is disabled: arrival order alone
	seq uint64
	t   *core.Task
}

func (a *item) compare(b *item) int {
	if c := a.key.Compare(b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

type diskBlock struct {
	id  int
	min item // the block's first (key, seq); its task is not retained
}

// Config configures a task store.
type Config struct {
	// MemCapacity is the maximum number of inactive tasks kept in memory
	// before spilling (the "head block" plus insertion slack).
	MemCapacity int
	// BlockCapacity is the number of tasks per spilled block.
	BlockCapacity int
	// LSHDims is the minhash signature dimension; 0 disables LSH ordering
	// entirely (tasks are processed in insertion order), reproducing the
	// Dis-LSH configuration of Figure 12.
	LSHDims int
	// Seed seeds the LSH hash family.
	Seed uint64
}

func (c *Config) defaults() {
	if c.MemCapacity <= 0 {
		c.MemCapacity = 4096
	}
	if c.BlockCapacity <= 0 {
		c.BlockCapacity = c.MemCapacity / 2
	}
	if c.BlockCapacity <= 0 {
		c.BlockCapacity = 1
	}
}

// Store is the task store. Safe for concurrent use: executors insert
// batches, the candidate retriever pops.
type Store struct {
	cfg     Config
	signer  *lsh.Signer   // nil when LSH disabled
	zeroKey lsh.Signature // shared by every task with nothing to pull
	codec   core.ContextCodec
	spiller *spill.Spiller

	mu   sync.Mutex
	cond *sync.Cond
	// The in-memory head is items[off:], ascending: pops advance off, inserts
	// merge into the slack behind the tail, neither re-slices capacity away.
	items   []item
	off     int
	scratch []item // Insert's sorted batch, reused
	blocks  []diskBlock
	seq     uint64 // arrival counter
	size    int
	closed  bool
	err     error // the spill read that failed; the store is closed from then on

	counters *metrics.Counters
	memBytes int64
}

// New creates a task store spilling through sp.
func New(cfg Config, codec core.ContextCodec, sp *spill.Spiller, counters *metrics.Counters) *Store {
	cfg.defaults()
	s := &Store{cfg: cfg, codec: codec, spiller: sp, counters: counters}
	if cfg.LSHDims > 0 {
		s.signer = lsh.NewSigner(cfg.LSHDims, cfg.Seed)
		s.zeroKey = make(lsh.Signature, cfg.LSHDims)
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// keyFor computes the priority key of a task: the LSH signature of its
// to_pull set, or nothing when LSH is disabled (arrival order decides).
// Tasks with nothing to pull share the zero signature and sort first — they
// are ready to run immediately.
func (s *Store) keyFor(t *core.Task) lsh.Signature {
	switch {
	case s.signer == nil:
		return nil
	case len(t.ToPull) == 0:
		return s.zeroKey
	}
	return lsh.SignSet(s.signer, t.ToPull)
}

// head is the in-memory tasks, ascending.
func (s *Store) head() []item { return s.items[s.off:] }

// Insert adds a batch of inactive tasks ("the tasks in this buffer are
// inserted into the task store in batches", §4.3). Spills to disk when
// the in-memory head exceeds its capacity.
func (s *Store) Insert(tasks []*core.Task) error {
	if len(tasks) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	batch := s.scratch[:0]
	for _, t := range tasks {
		s.seq++
		batch = append(batch, item{key: s.keyFor(t), seq: s.seq, t: t})
		s.size++
		s.memBytes += t.FootprintBytes()
	}
	slices.SortFunc(batch, func(a, b item) int { return a.compare(&b) })
	s.mergeLocked(batch)
	clear(batch)
	s.scratch = batch[:0]
	if err := s.maybeSpillLocked(); err != nil {
		return err
	}
	s.cond.Broadcast()
	return nil
}

// room makes space for n more items behind the head: a head filling under
// half the storage slides back to the front, a fuller one moves to storage
// twice the size. Either copy is paid for by the inserts that used the tail
// up, so an insert costs its batch, amortised, not the head.
func (s *Store) room(n int) {
	live := len(s.items) - s.off
	switch {
	case cap(s.items)-len(s.items) >= n:
		return
	case 2*(live+n) <= cap(s.items):
		copy(s.items, s.items[s.off:])
		clear(s.items[live:])
		s.items = s.items[:live]
	default:
		grown := make([]item, live, 2*(live+n))
		copy(grown, s.items[s.off:])
		s.items = grown
	}
	s.off = 0
}

// mergeLocked merges an ascending batch into the head in place, from the
// back: each item is placed by binary search and the head items above it move
// up as one block — no second slice, no compare per head item.
func (s *Store) mergeLocked(batch []item) {
	s.room(len(batch))
	hi := len(s.items) // head items at or above hi have already moved up
	s.items = s.items[:hi+len(batch)]
	for j := len(batch) - 1; j >= 0; j-- {
		b := &batch[j]
		// First head item after b; equal keys arrived earlier and stay ahead.
		p := s.off + sort.Search(hi-s.off, func(i int) bool { return s.items[s.off+i].compare(b) > 0 })
		copy(s.items[p+j+1:], s.items[p:hi])
		s.items[p+j] = *b
		hi = p
	}
}

// maybeSpillLocked spills the largest-key suffix of the head into disk
// blocks until the head fits in memory again.
func (s *Store) maybeSpillLocked() error {
	for len(s.head()) > s.cfg.MemCapacity {
		n := s.cfg.BlockCapacity
		if n > len(s.head())-s.cfg.MemCapacity/2 {
			n = len(s.head()) - s.cfg.MemCapacity/2
		}
		if n <= 0 {
			return nil
		}
		chunk := s.items[len(s.items)-n:]
		err := s.spillChunkLocked(chunk)
		clear(chunk)
		s.items = s.items[:len(s.items)-n]
		if err != nil {
			return err
		}
	}
	return nil
}

// spillChunkLocked writes chunk out as one block: a header of what the
// store derived for each task — its key, arrival number and to_pull, which a
// reloaded task skips intake and so cannot recompute — then the tasks
// themselves as one core.EncodeTasks list.
func (s *Store) spillChunkLocked(chunk []item) error {
	// Pooled: the spiller writes the block out during Write.
	w := wire.GetWriter(1024 * len(chunk))
	defer wire.PutWriter(w)
	tasks := make([]*core.Task, len(chunk))
	w.Uvarint(uint64(len(chunk)))
	for i, it := range chunk {
		w.BytesField(it.key.Bytes())
		w.Uvarint(it.seq)
		wire.EncodeIDs(w, it.t.ToPull)
		tasks[i] = it.t
		s.memBytes -= it.t.FootprintBytes()
	}
	core.EncodeTasks(w, tasks, s.codec)
	id, err := s.spiller.Write(w.Bytes())
	if err != nil {
		return err
	}
	s.blocks = append(s.blocks, diskBlock{id: id, min: item{key: slices.Clone(chunk[0].key), seq: chunk[0].seq}})
	return nil
}

// readBlock reads a spilled block back into items, ascending as spilled.
func (s *Store) readBlock(id int) ([]item, error) {
	data, err := s.spiller.Read(id)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(data)
	// A header entry is ≥3 bytes: key length, arrival number, to_pull length.
	items := make([]item, r.Count(3))
	pulls := make([][]graph.VertexID, len(items))
	for i := range items {
		items[i].key = lsh.SignatureFromBytes(r.BytesField())
		items[i].seq = r.Uvarint()
		pulls[i] = wire.DecodeIDs(r)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: block %d header: %w", id, err)
	}
	tasks, err := core.DecodeTasks(data[len(data)-r.Remaining():], s.codec)
	if err == nil && len(tasks) != len(items) {
		err = fmt.Errorf("%d tasks under %d header entries", len(tasks), len(items))
	}
	if err != nil {
		return nil, fmt.Errorf("store: block %d: %w", id, err)
	}
	for i, t := range tasks {
		t.ToPull = pulls[i]
		items[i].t = t
	}
	return items, nil
}

// loadBlockLocked reads the spilled block with the smallest first item back
// into the in-memory head.
func (s *Store) loadBlockLocked() error {
	best := 0
	for i := range s.blocks {
		if s.blocks[i].min.compare(&s.blocks[best].min) < 0 {
			best = i
		}
	}
	blk := s.blocks[best]
	s.blocks = append(s.blocks[:best], s.blocks[best+1:]...)
	loaded, err := s.readBlock(blk.id)
	if err != nil {
		return fmt.Errorf("store: spill read: %w", err)
	}
	s.spiller.Free(blk.id)
	for _, it := range loaded {
		s.memBytes += it.t.FootprintBytes()
	}
	s.mergeLocked(loaded)
	return nil
}

// PopWait removes and returns the lowest-key task, blocking until one is
// available. Returns nil, false after Close with the store drained, and at
// once, every time, after a spill read failed (Err says which).
func (s *Store) PopWait() (*core.Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil {
		if s.size > 0 {
			if t := s.popLocked(); t != nil {
				return t, true
			}
			continue
		}
		if s.closed {
			break
		}
		s.cond.Wait()
	}
	return nil, false
}

// Err returns the spill read that failed, or nil. A block that cannot be
// read back loses its tasks, so the store answers no pop after it.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// TryPop removes the lowest-key task without blocking.
func (s *Store) TryPop() (*core.Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size == 0 || s.err != nil {
		return nil, false
	}
	t := s.popLocked()
	return t, t != nil
}

// popLocked removes the lowest-key task, nil if a spill read fails: that
// closes the store, keeps the error and wakes every waiter.
func (s *Store) popLocked() *core.Task {
	// While a spilled block may hold an item ahead of the head's first (or
	// the head is empty), load it first.
	for s.blockAheadLocked() {
		if err := s.loadBlockLocked(); err != nil {
			s.err, s.closed = err, true
			s.cond.Broadcast()
			return nil
		}
	}
	if s.off == len(s.items) {
		return nil
	}
	it := s.items[s.off]
	s.items[s.off] = item{}
	if s.off++; s.off == len(s.items) {
		s.items, s.off = s.items[:0], 0
	}
	s.size--
	s.memBytes -= it.t.FootprintBytes()
	return it.t
}

func (s *Store) blockAheadLocked() bool {
	if s.off == len(s.items) {
		return len(s.blocks) > 0
	}
	for i := range s.blocks {
		if s.blocks[i].min.compare(&s.items[s.off]) < 0 {
			return true
		}
	}
	return false
}

// Steal removes up to n tasks for migration, preferring the tail of the
// priority queue (the tasks the local worker would process last), subject
// to the eligibility filter (Eq. 2/3 thresholds). Only in-memory tasks are
// candidates: migrating spilled tasks would pay disk I/O on top of network.
func (s *Store) Steal(n int, eligible func(*core.Task) bool) []*core.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*core.Task
	// One pass down from the tail: picks leave, the tasks passed over pack
	// against the end, and one copy closes the gap below them.
	i, keep := len(s.items), len(s.items)
	for i > s.off && len(out) < n {
		i--
		if t := s.items[i].t; eligible == nil || eligible(t) {
			out = append(out, t)
			s.memBytes -= t.FootprintBytes()
			continue
		}
		keep--
		s.items[keep] = s.items[i]
	}
	end := i + copy(s.items[i:], s.items[keep:])
	clear(s.items[end:])
	s.items = s.items[:end]
	s.size -= len(out)
	return out
}

// Size returns the number of stored tasks (memory + disk).
func (s *Store) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// MemBytes returns the estimated bytes of in-memory tasks.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memBytes
}

// SpilledBlocks returns the number of on-disk blocks (introspection).
func (s *Store) SpilledBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// Snapshot encodes every stored task (memory and disk) as one
// core.EncodeTasks list without removing anything. Used by checkpointing
// (§7: "dump the state of its partition ... where the state includes the
// inactive tasks on disk" and in memory); a restored task's key and arrival
// number are made anew at its intake.
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tasks := make([]*core.Task, 0, s.size)
	for _, it := range s.head() {
		tasks = append(tasks, it.t)
	}
	for _, blk := range s.blocks {
		items, err := s.readBlock(blk.id)
		if err != nil {
			return nil, fmt.Errorf("store: snapshot: %w", err)
		}
		for _, it := range items {
			tasks = append(tasks, it.t)
		}
	}
	// w is returned to the caller and must not come from the pool.
	w := wire.NewWriter(256 * len(tasks))
	core.EncodeTasks(w, tasks, s.codec)
	return w.Bytes(), nil
}

// Close wakes any blocked PopWait callers; the store can still be drained
// by TryPop but accepts no further inserts.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}
