package store

import (
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gminer/internal/cache"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/spill"
)

func newStore(t *testing.T, cfg Config, dir string) *Store {
	t.Helper()
	sp, err := spill.New(dir, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	return New(cfg, core.NoContext{}, sp, &metrics.Counters{})
}

// popAll takes every task out of s, in store order.
func popAll(s *Store) []*core.Task {
	var out []*core.Task
	for {
		t, ok := s.TryPop()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

func mkTask(id uint64, pulls ...graph.VertexID) *core.Task {
	t := &core.Task{ID: id}
	t.Subgraph.AddVertex(graph.VertexID(id))
	t.Cands = pulls
	t.ToPull = pulls
	return t
}

func TestInsertPopFIFOWithoutLSH(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 100, LSHDims: 0}, "")
	for i := uint64(1); i <= 5; i++ {
		if err := s.Insert([]*core.Task{mkTask(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		task, ok := s.TryPop()
		if !ok || task.ID != i {
			t.Fatalf("pop %d: got %+v ok=%v", i, task, ok)
		}
	}
	if _, ok := s.TryPop(); ok {
		t.Fatal("store should be empty")
	}
}

func TestLSHGroupsSimilarTasks(t *testing.T) {
	// The Figure 3 property: tasks sharing remote candidates come out
	// adjacent. Two families of tasks with disjoint to_pull sets must not
	// interleave more than a few times.
	s := newStore(t, Config{MemCapacity: 1000, LSHDims: 4, Seed: 7}, "")
	famA := []graph.VertexID{1000, 1001, 1002, 1003}
	famB := []graph.VertexID{2000, 2001, 2002, 2003}
	var tasks []*core.Task
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			tasks = append(tasks, mkTask(uint64(i), famA...))
		} else {
			tasks = append(tasks, mkTask(uint64(i), famB...))
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(tasks), func(i, j int) {
		tasks[i], tasks[j] = tasks[j], tasks[i]
	})
	if err := s.Insert(tasks); err != nil {
		t.Fatal(err)
	}
	switches := 0
	var prev graph.VertexID = -1
	for {
		task, ok := s.TryPop()
		if !ok {
			break
		}
		fam := task.ToPull[0]
		if prev != -1 && fam != prev {
			switches++
		}
		prev = fam
	}
	if switches > 1 {
		t.Fatalf("families interleaved %d times; LSH ordering broken", switches)
	}
}

func TestSpillAndReload(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 8, BlockCapacity: 4, LSHDims: 4}, t.TempDir())
	var want []uint64
	var batch []*core.Task
	for i := uint64(0); i < 50; i++ {
		batch = append(batch, mkTask(i, graph.VertexID(i%7+100)))
		want = append(want, i)
	}
	if err := s.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if s.SpilledBlocks() == 0 {
		t.Fatal("expected disk blocks")
	}
	if s.Size() != 50 {
		t.Fatalf("size=%d", s.Size())
	}
	var got []uint64
	for {
		task, ok := s.TryPop()
		if !ok {
			break
		}
		got = append(got, task.ID)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		t.Fatalf("lost tasks: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("task set mismatch at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// A task reloaded from a spill block skips intake, so the block's header
// gives it back the to_pull it was stored with; a snapshot, whose tasks do go
// through intake, carries none.
func TestSpilledTaskKeepsToPull(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 4, BlockCapacity: 2, LSHDims: 4}, t.TempDir())
	var batch []*core.Task
	for i := uint64(0); i < 20; i++ {
		batch = append(batch, mkTask(i, graph.VertexID(100+i), graph.VertexID(200+i%3)))
	}
	if err := s.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if s.SpilledBlocks() == 0 {
		t.Fatal("expected disk blocks")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapped, err := core.DecodeTasks(snap, core.NoContext{})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range snapped {
		if task.ToPull != nil {
			t.Fatalf("snapshot task %d carries to_pull %v", task.ID, task.ToPull)
		}
	}
	popped := popAll(s)
	if len(popped) != len(batch) {
		t.Fatalf("popped %d of %d", len(popped), len(batch))
	}
	for _, task := range popped {
		if want := []graph.VertexID{graph.VertexID(100 + task.ID), graph.VertexID(200 + task.ID%3)}; !slices.Equal(task.ToPull, want) {
			t.Fatalf("task %d came back with to_pull %v, want %v", task.ID, task.ToPull, want)
		}
	}
}

// With no directory configured a spilling store's blocks go to disk, under a
// temporary directory in TMPDIR — never RAM, which MemBytes has stopped
// counting — and closing the spiller leaves nothing behind.
func TestSpillWithoutDirGoesToTempDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	sp, err := spill.New("", &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MemCapacity: 8, BlockCapacity: 4, LSHDims: 4}, core.NoContext{}, sp, nil)
	var batch []*core.Task
	for i := uint64(0); i < 50; i++ {
		batch = append(batch, mkTask(i, graph.VertexID(i%7+100)))
	}
	if err := s.Insert(batch); err != nil {
		t.Fatal(err)
	}
	blocks, _ := filepath.Glob(filepath.Join(tmp, "gminer-spill-*", "block-*.bin"))
	if s.SpilledBlocks() == 0 || len(blocks) != s.SpilledBlocks() {
		t.Fatalf("%d spilled blocks, %d block files under TMPDIR", s.SpilledBlocks(), len(blocks))
	}
	s.Close()
	sp.Close()
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Fatalf("closing the spiller left %d entries in TMPDIR", len(entries))
	}
}

func TestMemoryBounded(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 16, BlockCapacity: 8, LSHDims: 4}, "")
	var batch []*core.Task
	for i := uint64(0); i < 500; i++ {
		batch = append(batch, mkTask(i, graph.VertexID(i)))
	}
	if err := s.Insert(batch); err != nil {
		t.Fatal(err)
	}
	// In-memory head must stay within ~MemCapacity tasks.
	perTask := mkTask(0, 1).FootprintBytes()
	if s.MemBytes() > 20*perTask {
		t.Fatalf("head not bounded: %d bytes (%d/task)", s.MemBytes(), perTask)
	}
}

func TestStealTakesFromTail(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 100, LSHDims: 0}, "")
	for i := uint64(0); i < 10; i++ {
		_ = s.Insert([]*core.Task{mkTask(i)})
	}
	stolen := s.Steal(3, nil)
	if len(stolen) != 3 {
		t.Fatalf("stole %d", len(stolen))
	}
	// FIFO keys: the tail holds the newest tasks.
	for _, task := range stolen {
		if task.ID < 7 {
			t.Fatalf("stole from head: task %d", task.ID)
		}
	}
	if s.Size() != 7 {
		t.Fatalf("size=%d", s.Size())
	}
}

func TestStealRespectsEligibility(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 100, LSHDims: 0}, "")
	for i := uint64(0); i < 10; i++ {
		_ = s.Insert([]*core.Task{mkTask(i)})
	}
	stolen := s.Steal(10, func(t *core.Task) bool { return t.ID%2 == 0 })
	if len(stolen) != 5 {
		t.Fatalf("stole %d, want 5", len(stolen))
	}
	for _, task := range stolen {
		if task.ID%2 != 0 {
			t.Fatalf("ineligible task stolen: %d", task.ID)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 4, BlockCapacity: 2, LSHDims: 4}, t.TempDir())
	var batch []*core.Task
	for i := uint64(0); i < 20; i++ {
		batch = append(batch, mkTask(i, graph.VertexID(300+i%5)))
	}
	_ = s.Insert(batch)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot must not consume the store.
	if s.Size() != 20 {
		t.Fatalf("snapshot drained the store: %d", s.Size())
	}
	tasks, err := core.DecodeTasks(snap, core.NoContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 20 {
		t.Fatalf("restored %d tasks", len(tasks))
	}
	seen := map[uint64]bool{}
	for _, task := range tasks {
		seen[task.ID] = true
	}
	for i := uint64(0); i < 20; i++ {
		if !seen[i] {
			t.Fatalf("task %d missing from snapshot", i)
		}
	}
}

func TestPopWaitBlocksAndCloseReleases(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 4}, "")
	done := make(chan bool)
	go func() {
		_, ok := s.PopWait()
		done <- ok
	}()
	s.Close()
	if ok := <-done; ok {
		t.Fatal("PopWait should return false after Close")
	}
}

func TestConcurrentInsertPop(t *testing.T) {
	s := newStore(t, Config{MemCapacity: 32, BlockCapacity: 16, LSHDims: 4}, "")
	const n = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			_ = s.Insert([]*core.Task{mkTask(i, graph.VertexID(i%13))})
		}
	}()
	got := 0
	for got < n {
		if _, ok := s.TryPop(); ok {
			got++
		}
	}
	wg.Wait()
	if s.Size() != 0 {
		t.Fatalf("leftover %d", s.Size())
	}
}

// Property: insert-then-drain preserves the multiset of task IDs for any
// batch structure and any spill pressure.
func TestQuickNoTaskLoss(t *testing.T) {
	f := func(seeds []uint16, memCap8 uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		cfg := Config{MemCapacity: int(memCap8%16) + 2, BlockCapacity: 2, LSHDims: 4}
		sp, _ := spill.New("", nil)
		defer sp.Close()
		s := New(cfg, core.NoContext{}, sp, nil)
		want := map[uint64]int{}
		for i, x := range seeds {
			task := mkTask(uint64(i), graph.VertexID(x%97))
			want[task.ID]++
			if s.Insert([]*core.Task{task}) != nil {
				return false
			}
		}
		// Both ways out see every task once: the snapshot, which reads the
		// spilled blocks in place, and popping the store empty.
		same := func(tasks []*core.Task) bool {
			left := maps.Clone(want)
			for _, task := range tasks {
				left[task.ID]--
			}
			for _, c := range left {
				if c != 0 {
					return false
				}
			}
			return len(tasks) == len(seeds)
		}
		snap, err := s.Snapshot()
		if err != nil {
			return false
		}
		snapped, err := core.DecodeTasks(snap, core.NoContext{})
		return err == nil && same(snapped) && same(popAll(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// What LSH ordering is for (§7, Figure 12), measured without a clock: the
// tasks of one worker of an oriented triangle count — one per local vertex,
// to_pull = its remote forward neighbors — are popped one at a time
// through a 64-entry RCV cache, once in signature order and once in the
// seed scan's hash-shuffled insertion order. Everything is single-threaded, so
// the miss counts are exact, and signature order must need fewer pulls.
func TestLSHOrderCutsCacheMisses(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 103})
	gplus := graph.Orient(g)
	assign, err := partition.Hash{}.Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	local := assign.Local(g, 0)
	sort.Slice(local, func(i, j int) bool { return lsh.HashID(uint64(local[i])) < lsh.HashID(uint64(local[j])) })
	misses := func(dims int) int64 {
		var tasks []*core.Task
		for i, id := range local {
			var pull []graph.VertexID
			for _, u := range gplus.Vertex(id).Adj {
				if assign.Owner(u) != 0 {
					pull = append(pull, u)
				}
			}
			if len(pull) > 0 {
				tasks = append(tasks, mkTask(uint64(i), pull...))
			}
		}
		s := newStore(t, Config{MemCapacity: len(tasks), LSHDims: dims, Seed: 0x5eed}, "")
		if err := s.Insert(tasks); err != nil {
			t.Fatal(err)
		}
		counters := &metrics.Counters{}
		rcv := cache.New(64, counters)
		for {
			task, ok := s.TryPop()
			if !ok {
				break
			}
			for _, id := range task.ToPull {
				if _, hit := rcv.Acquire(id); !hit {
					rcv.ForceInsert(gplus.Vertex(id))
				}
			}
			rcv.Release(task.ToPull...)
		}
		return counters.Snapshot().CacheMisses
	}
	withLSH, fifo := misses(4), misses(0)
	t.Logf("cache misses: lsh=%d fifo=%d", withLSH, fifo)
	if withLSH >= fifo {
		t.Fatalf("signature order needed %d pulls, insertion order %d", withLSH, fifo)
	}
}

// The store's contract, whatever happens in between: tasks leave in the
// order of a stable sort by (key, arrival). A reference model — a plain
// slice re-sorted after every insert — is driven beside the store through
// random interleavings of Insert batches, TryPop and Steal, with the head
// small enough that most tasks pass through a spill block when spilling is
// on. Every pop must be the model's first task. A steal may only take what
// is in memory, so with spilling off it must be exactly the model's last
// eligible tasks, tail first; with spilling on it must be eligible tasks,
// tail first among themselves, that the model still holds.
func TestStoreOrderMatchesStableSort(t *testing.T) {
	type ref struct {
		key lsh.Signature
		seq int
		t   *core.Task
	}
	eligible := func(t *core.Task) bool { return t.ID%3 != 0 }
	for _, tc := range []struct {
		name       string
		memCap     int
		dims       int
		spillsWant bool
	}{
		{"lsh", 1 << 20, 4, false},
		{"fifo", 1 << 20, 0, false},
		{"lsh+spill", 24, 4, true},
		{"fifo+spill", 24, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.memCap + tc.dims)))
			s := newStore(t, Config{MemCapacity: tc.memCap, BlockCapacity: 5, LSHDims: tc.dims, Seed: 99}, "")
			signer := lsh.NewSigner(4, 99)
			var model []ref
			var nextID uint64
			arrivals, spilled := 0, false
			indexOf := func(id uint64) int {
				return slices.IndexFunc(model, func(r ref) bool { return r.t.ID == id })
			}
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // insert a batch; few distinct to_pull sets, so keys tie
					batch := make([]*core.Task, 1+rng.Intn(12))
					for i := range batch {
						nextID++
						var pulls []graph.VertexID
						for n := rng.Intn(3); n > 0; n-- {
							pulls = append(pulls, graph.VertexID(500+rng.Intn(6)))
						}
						batch[i] = mkTask(nextID, pulls...)
						r := ref{seq: arrivals, t: batch[i]}
						arrivals++
						switch {
						case tc.dims == 0:
						case len(pulls) == 0:
							r.key = make(lsh.Signature, 4)
						default:
							r.key = lsh.SignSet(signer, pulls)
						}
						model = append(model, r)
					}
					if err := s.Insert(batch); err != nil {
						t.Fatal(err)
					}
					sort.SliceStable(model, func(i, j int) bool {
						if c := model[i].key.Compare(model[j].key); c != 0 {
							return c < 0
						}
						return model[i].seq < model[j].seq
					})
					spilled = spilled || s.SpilledBlocks() > 0
				case op < 8:
					task, ok := s.TryPop()
					if ok != (len(model) > 0) {
						t.Fatalf("step %d: pop ok=%v with %d tasks stored", step, ok, len(model))
					}
					if !ok {
						continue
					}
					if task.ID != model[0].t.ID {
						t.Fatalf("step %d: popped task %d, reference order says %d", step, task.ID, model[0].t.ID)
					}
					model = model[1:]
				default:
					n := 1 + rng.Intn(6)
					stolen := s.Steal(n, eligible)
					var want []uint64 // the model's last n eligible, tail first
					for i := len(model) - 1; i >= 0 && len(want) < n; i-- {
						if eligible(model[i].t) {
							want = append(want, model[i].t.ID)
						}
					}
					if !tc.spillsWant && len(stolen) != len(want) {
						t.Fatalf("step %d: stole %d tasks, the tail holds %d eligible", step, len(stolen), len(want))
					}
					prev := len(model)
					for i, task := range stolen {
						if !eligible(task) {
							t.Fatalf("step %d: stole ineligible task %d", step, task.ID)
						}
						if !tc.spillsWant && task.ID != want[i] {
							t.Fatalf("step %d: steal %d is task %d, want %d", step, i, task.ID, want[i])
						}
						// DecodeTask rebuilds a spilled task: identity is the ID.
						at := indexOf(task.ID)
						if at < 0 || at >= prev {
							t.Fatalf("step %d: stolen task %d at model position %d after %d: not tail first", step, task.ID, at, prev)
						}
						prev = at
					}
					for _, task := range stolen {
						model = slices.Delete(model, indexOf(task.ID), indexOf(task.ID)+1)
					}
				}
				if s.Size() != len(model) {
					t.Fatalf("step %d: size %d, model %d", step, s.Size(), len(model))
				}
			}
			if spilled != tc.spillsWant {
				t.Fatalf("spilled=%v, want %v: the interleaving missed the path it is for", spilled, tc.spillsWant)
			}
			for i := 0; len(model) > 0; i++ {
				task, ok := s.TryPop()
				if !ok || task.ID != model[0].t.ID {
					t.Fatalf("drain %d: got %v ok=%v, want task %d", i, task, ok, model[0].t.ID)
				}
				model = model[1:]
			}
			if s.MemBytes() != 0 || s.SpilledBlocks() != 0 {
				t.Fatalf("drained store still accounts %d bytes, %d blocks", s.MemBytes(), s.SpilledBlocks())
			}
		})
	}
}

// Insert and pop must cost their batch, not the head: with 4 096 tasks
// resident, putting a 64-task batch in and taking 64 tasks out allocates
// at most the tasks' keys — no fresh head, no per-insert scratch, no
// []uint64 copy of a to_pull set.
func TestStoreInsertPopAllocs(t *testing.T) {
	for _, dims := range []int{4, 0} {
		s := newStore(t, Config{MemCapacity: 1 << 20, LSHDims: dims}, "")
		if err := s.Insert(benchTasks(4096)); err != nil {
			t.Fatal(err)
		}
		batch := benchTasks(64)
		batch[0].ToPull = nil // the shared zero key
		perRun := testing.AllocsPerRun(200, func() {
			if err := s.Insert(batch); err != nil {
				t.Fatal(err)
			}
			for range batch {
				if _, ok := s.TryPop(); !ok {
					t.Fatal("pop failed")
				}
			}
		})
		if perTask := perRun / float64(len(batch)); perTask > 1 {
			t.Fatalf("dims=%d: %.2f allocations per task through Insert+Pop, want <= 1 (the key)", dims, perTask)
		} else {
			t.Logf("dims=%d: %.2f allocations per task", dims, perTask)
		}
	}
}

// TestLostSpillBlockFailsEveryPop: a spilled block whose file is gone loses
// its tasks, so the store keeps the read's error and answers every later
// pop at once — PopWait and TryPop alike — rather than spinning on tasks it
// still counts. The pops run under a bound, since a spinning one holds the
// store lock for good.
func TestLostSpillBlockFailsEveryPop(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t, Config{MemCapacity: 8, BlockCapacity: 4, LSHDims: 4}, dir)
	var batch []*core.Task
	for i := uint64(0); i < 50; i++ {
		batch = append(batch, mkTask(i, graph.VertexID(i%7+100)))
	}
	if err := s.Insert(batch); err != nil {
		t.Fatal(err)
	}
	blocks, _ := filepath.Glob(filepath.Join(dir, "gminer-spill-*", "block-*.bin"))
	if len(blocks) == 0 {
		t.Fatal("nothing spilled")
	}
	for _, b := range blocks {
		if err := os.Remove(b); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan int)
	go func() {
		popped := 0
		for {
			if _, ok := s.PopWait(); !ok {
				break
			}
			popped++
		}
		// One more ask than there are blocks: a store that dropped only the
		// block it failed on runs out of blocks to fail on, and spins.
		for range blocks {
			_, again := s.PopWait()
			_, try := s.TryPop()
			if again || try {
				popped = -1
			}
		}
		if _, again := s.PopWait(); again {
			popped = -1
		}
		done <- popped
	}()
	select {
	case popped := <-done:
		if popped < 0 || popped >= 50 {
			t.Fatalf("popped %d of 50 tasks with every block lost (-1: a pop succeeded after the failure)", popped)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PopWait did not return within 10 s after a spill read failed")
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "spill read") {
		t.Fatalf("Err() = %v, want the failed spill read", err)
	}
}
