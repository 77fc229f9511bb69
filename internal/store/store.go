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
	// lowWater is the size a WaitBelow caller sleeps for; -1 when nobody does.
	lowWater int

	counters *metrics.Counters
	memBytes int64
}

// New creates a task store spilling through sp.
func New(cfg Config, codec core.ContextCodec, sp *spill.Spiller, counters *metrics.Counters) *Store {
	cfg.defaults()
	s := &Store{cfg: cfg, codec: codec, spiller: sp, counters: counters, lowWater: -1}
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
		t.SetStatus(core.StatusInactive)
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

func (s *Store) spillChunkLocked(chunk []item) error {
	// Pooled buffers: the spiller copies (or writes out) the block during
	// Write, and one scratch writer per chunk replaces the per-task
	// writer the encode loop used to allocate.
	w := wire.GetWriter(1024 * len(chunk))
	defer wire.PutWriter(w)
	tw := wire.GetWriter(256)
	defer wire.PutWriter(tw)
	w.Uvarint(uint64(len(chunk)))
	for _, it := range chunk {
		w.BytesField(it.key.Bytes())
		w.Uvarint(it.seq)
		tw.Reset()
		core.EncodeTask(tw, it.t, s.codec)
		w.BytesField(tw.Bytes())
		s.memBytes -= it.t.FootprintBytes()
	}
	id, err := s.spiller.Write(w.Bytes())
	if err != nil {
		return err
	}
	s.blocks = append(s.blocks, diskBlock{id: id, min: item{key: slices.Clone(chunk[0].key), seq: chunk[0].seq}})
	return nil
}

// decodeBlock walks a spilled block, handing each item's key, arrival
// number and encoded task to fn.
func decodeBlock(data []byte, fn func(key lsh.Signature, seq uint64, task []byte) error) error {
	r := wire.NewReader(data)
	for n := r.Uvarint(); n > 0 && r.Err() == nil; n-- {
		key := lsh.SignatureFromBytes(r.BytesField())
		seq := r.Uvarint()
		task := r.BytesField()
		if r.Err() != nil {
			break
		}
		if err := fn(key, seq, task); err != nil {
			return err
		}
	}
	return r.Err()
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
	data, err := s.spiller.Read(blk.id)
	if err != nil {
		return err
	}
	s.spiller.Free(blk.id)
	var loaded []item // ascending, as spilled
	err = decodeBlock(data, func(key lsh.Signature, seq uint64, task []byte) error {
		t, err := core.DecodeTask(wire.NewReader(task), s.codec)
		if err != nil {
			return fmt.Errorf("decode spilled task: %w", err)
		}
		loaded = append(loaded, item{key: key, seq: seq, t: t})
		s.memBytes += t.FootprintBytes()
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: block %d: %w", blk.id, err)
	}
	s.mergeLocked(loaded)
	return nil
}

// PopWait removes and returns the lowest-key task, blocking until one is
// available. Returns nil, false after Close with the store drained or
// closed.
func (s *Store) PopWait() (*core.Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.size > 0 {
			t, err := s.popLocked()
			if err == nil && t != nil {
				return t, true
			}
			if err != nil {
				// Spill corruption is unrecoverable for this store.
				s.closed = true
				return nil, false
			}
			continue
		}
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
}

// WaitBelow blocks while the store holds more than n tasks (and is open):
// the seeder's backpressure against a full store. One caller at a time.
func (s *Store) WaitBelow(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.size > n && !s.closed {
		s.lowWater = n
		s.cond.Wait()
	}
	s.lowWater = -1
}

// shrunkLocked wakes the WaitBelow caller once the store has drained to its
// mark — not on every pop above it, which would wake it only to sleep again.
func (s *Store) shrunkLocked() {
	if s.size <= s.lowWater {
		s.cond.Broadcast()
	}
}

// TryPop removes the lowest-key task without blocking.
func (s *Store) TryPop() (*core.Task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size == 0 {
		return nil, false
	}
	t, err := s.popLocked()
	if err != nil || t == nil {
		return nil, false
	}
	return t, true
}

func (s *Store) popLocked() (*core.Task, error) {
	// While a spilled block may hold an item ahead of the head's first (or
	// the head is empty), load it first.
	for s.blockAheadLocked() {
		if err := s.loadBlockLocked(); err != nil {
			return nil, err
		}
	}
	if s.off == len(s.items) {
		return nil, nil
	}
	it := s.items[s.off]
	s.items[s.off] = item{}
	if s.off++; s.off == len(s.items) {
		s.items, s.off = s.items[:0], 0
	}
	s.size--
	s.memBytes -= it.t.FootprintBytes()
	s.shrunkLocked()
	return it.t, nil
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
	s.shrunkLocked()
	return out
}

// Drain removes and returns every task currently in the store (used by
// checkpointing). Spilled blocks are loaded as needed.
func (s *Store) Drain() ([]*core.Task, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*core.Task
	for s.size > 0 {
		t, err := s.popLocked()
		if err != nil {
			return out, err
		}
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out, nil
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

// Snapshot encodes every stored task (memory and disk) without removing
// anything; the format is count + length-prefixed EncodeTask payloads.
// Used by checkpointing (§7: "dump the state of its partition ... where
// the state includes the inactive tasks on disk" and in memory).
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// w is returned to the caller and must not come from the pool; the
	// per-task scratch writer is pooled and reused across tasks.
	w := wire.NewWriter(256 * s.size)
	w.Uvarint(uint64(s.size))
	tw := wire.GetWriter(256)
	defer wire.PutWriter(tw)
	for _, it := range s.head() {
		tw.Reset()
		core.EncodeTask(tw, it.t, s.codec)
		w.BytesField(tw.Bytes())
	}
	for _, blk := range s.blocks {
		data, err := s.spiller.Read(blk.id)
		if err != nil {
			return nil, err
		}
		err = decodeBlock(data, func(_ lsh.Signature, _ uint64, task []byte) error {
			w.BytesField(task) // key and arrival are recomputed on restore
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("store: snapshot block %d: %w", blk.id, err)
		}
	}
	return w.Bytes(), nil
}

// DecodeSnapshot parses tasks from a Snapshot payload.
func DecodeSnapshot(data []byte, codec core.ContextCodec) ([]*core.Task, error) {
	r := wire.NewReader(data)
	n := r.Count(1)
	tasks := make([]*core.Task, 0, n)
	for i := 0; i < n; i++ {
		t, err := core.DecodeTask(wire.NewReader(r.BytesField()), codec)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, t)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		// A checkpoint payload is exactly its task list; trailing bytes mean
		// the count lied (truncation or corruption the CRC layer missed).
		return nil, fmt.Errorf("store: %d trailing snapshot bytes", r.Remaining())
	}
	return tasks, nil
}

// Close wakes any blocked PopWait callers; the store can still be drained
// by TryPop but accepts no further inserts.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}
