// Package store implements the task store of the task-pipeline (§4.3,
// §7): all inactive tasks of a worker, held in a priority queue keyed by
// LSH signatures of their to_pull sets so that successively dequeued tasks
// share remote candidates (Figure 3). Only a bounded number of tasks stay
// in memory; the rest are spilled to fixed-capacity disk blocks, each with
// a key-range index, and loaded back when the in-memory head drains.
package store

import (
	"fmt"
	"sort"
	"sync"

	"gminer/internal/core"
	"gminer/internal/lsh"
	"gminer/internal/metrics"
	"gminer/internal/spill"
	"gminer/internal/wire"
)

type item struct {
	key lsh.Signature
	t   *core.Task
}

type diskBlock struct {
	id     int
	minKey lsh.Signature
	count  int
	bytes  int
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
	signer  *lsh.Signer // nil when LSH disabled
	codec   core.ContextCodec
	spiller *spill.Spiller

	mu     sync.Mutex
	cond   *sync.Cond
	head   []item // sorted ascending by key
	blocks []diskBlock
	seq    uint64 // FIFO tiebreaker / key source when LSH disabled
	size   int
	closed bool
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
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// keyFor computes the priority key of a task: the LSH signature of its
// to_pull set, or a FIFO sequence number when LSH is disabled. Tasks with
// nothing to pull get the zero signature and sort first — they are ready
// to run immediately.
func (s *Store) keyFor(t *core.Task) lsh.Signature {
	if s.signer == nil {
		s.seq++
		return lsh.Signature{s.seq}
	}
	if len(t.ToPull) == 0 {
		return make(lsh.Signature, s.signer.K())
	}
	set := make([]uint64, len(t.ToPull))
	for i, id := range t.ToPull {
		set[i] = uint64(id)
	}
	return s.signer.Sign(set)
}

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
	// Sort the batch once and merge with the (sorted) head: O((n+m)·k)
	// instead of n sorted insertions with O(m) memmoves each.
	batch := make([]item, 0, len(tasks))
	for _, t := range tasks {
		t.SetStatus(core.StatusInactive)
		batch = append(batch, item{key: s.keyFor(t), t: t})
		s.size++
		s.memBytes += t.FootprintBytes()
	}
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].key.Less(batch[j].key) })
	merged := make([]item, 0, len(s.head)+len(batch))
	i, j := 0, 0
	for i < len(s.head) && j < len(batch) {
		if !batch[j].key.Less(s.head[i].key) {
			merged = append(merged, s.head[i])
			i++
		} else {
			merged = append(merged, batch[j])
			j++
		}
	}
	merged = append(merged, s.head[i:]...)
	merged = append(merged, batch[j:]...)
	s.head = merged
	if err := s.maybeSpillLocked(); err != nil {
		return err
	}
	s.cond.Broadcast()
	return nil
}

// maybeSpillLocked spills the largest-key suffix of the head into disk
// blocks until the head fits in memory again.
func (s *Store) maybeSpillLocked() error {
	for len(s.head) > s.cfg.MemCapacity {
		n := s.cfg.BlockCapacity
		if n > len(s.head)-s.cfg.MemCapacity/2 {
			n = len(s.head) - s.cfg.MemCapacity/2
		}
		if n <= 0 {
			return nil
		}
		chunk := s.head[len(s.head)-n:]
		s.head = s.head[:len(s.head)-n]
		if err := s.spillChunkLocked(chunk); err != nil {
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
		tw.Reset()
		core.EncodeTask(tw, it.t, s.codec)
		w.BytesField(tw.Bytes())
		s.memBytes -= it.t.FootprintBytes()
	}
	id, err := s.spiller.Write(w.Bytes())
	if err != nil {
		return err
	}
	s.blocks = append(s.blocks, diskBlock{
		id:     id,
		minKey: append(lsh.Signature(nil), chunk[0].key...),
		count:  len(chunk),
		bytes:  w.Len(),
	})
	return nil
}

// loadBlockLocked reads the spilled block with the smallest minKey back
// into the in-memory head.
func (s *Store) loadBlockLocked() error {
	best := -1
	for i := range s.blocks {
		if best < 0 || s.blocks[i].minKey.Less(s.blocks[best].minKey) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	blk := s.blocks[best]
	s.blocks = append(s.blocks[:best], s.blocks[best+1:]...)
	data, err := s.spiller.Read(blk.id)
	if err != nil {
		return err
	}
	s.spiller.Free(blk.id)
	r := wire.NewReader(data)
	n := r.Uvarint()
	items := make([]item, 0, n)
	for i := uint64(0); i < n; i++ {
		key := lsh.SignatureFromBytes(r.BytesField())
		t, err := core.DecodeTask(wire.NewReader(r.BytesField()), s.codec)
		if err != nil {
			return fmt.Errorf("store: decode spilled task: %w", err)
		}
		items = append(items, item{key: key, t: t})
		s.memBytes += t.FootprintBytes()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("store: block %d: %w", blk.id, err)
	}
	// Merge (both sorted).
	merged := make([]item, 0, len(s.head)+len(items))
	i, j := 0, 0
	for i < len(s.head) && j < len(items) {
		if s.head[i].key.Less(items[j].key) {
			merged = append(merged, s.head[i])
			i++
		} else {
			merged = append(merged, items[j])
			j++
		}
	}
	merged = append(merged, s.head[i:]...)
	merged = append(merged, items[j:]...)
	s.head = merged
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
	// If a spilled block may contain a smaller key than the head (or the
	// head is empty), load it first.
	for {
		needLoad := false
		if len(s.head) == 0 && len(s.blocks) > 0 {
			needLoad = true
		} else if len(s.blocks) > 0 {
			for i := range s.blocks {
				if s.blocks[i].minKey.Less(s.head[0].key) {
					needLoad = true
					break
				}
			}
		}
		if !needLoad {
			break
		}
		if err := s.loadBlockLocked(); err != nil {
			return nil, err
		}
	}
	if len(s.head) == 0 {
		return nil, nil
	}
	it := s.head[0]
	s.head = s.head[1:]
	s.size--
	s.memBytes -= it.t.FootprintBytes()
	s.shrunkLocked()
	return it.t, nil
}

// Steal removes up to n tasks for migration, preferring the tail of the
// priority queue (the tasks the local worker would process last), subject
// to the eligibility filter (Eq. 2/3 thresholds). Only in-memory tasks are
// candidates: migrating spilled tasks would pay disk I/O on top of network.
func (s *Store) Steal(n int, eligible func(*core.Task) bool) []*core.Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*core.Task
	for i := len(s.head) - 1; i >= 0 && len(out) < n; i-- {
		if eligible == nil || eligible(s.head[i].t) {
			out = append(out, s.head[i].t)
			s.memBytes -= s.head[i].t.FootprintBytes()
			s.head = append(s.head[:i], s.head[i+1:]...)
			s.size--
		}
	}
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
	for _, it := range s.head {
		tw.Reset()
		core.EncodeTask(tw, it.t, s.codec)
		w.BytesField(tw.Bytes())
	}
	for _, blk := range s.blocks {
		data, err := s.spiller.Read(blk.id)
		if err != nil {
			return nil, err
		}
		r := wire.NewReader(data)
		n := r.Uvarint()
		for i := uint64(0); i < n; i++ {
			_ = r.BytesField() // key, recomputed on restore
			w.BytesField(r.BytesField())
		}
		if err := r.Err(); err != nil {
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
