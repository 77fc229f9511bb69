package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"gminer/internal/core"
	"gminer/internal/graph"
)

// White-box tests for the pipeline building blocks and protocol codecs.

func TestTaskQueueFIFO(t *testing.T) {
	q := newTaskQueue()
	for i := uint64(1); i <= 3; i++ {
		q.push(&core.Task{ID: i})
	}
	for i := uint64(1); i <= 3; i++ {
		task, ok := q.pop()
		if !ok || task.ID != i {
			t.Fatalf("pop %d: %v %v", i, task, ok)
		}
	}
}

func TestTaskQueueCloseDrains(t *testing.T) {
	q := newTaskQueue()
	q.push(&core.Task{ID: 1})
	q.close()
	// Close lets consumers drain what was queued, then reports done;
	// pushes after close are dropped.
	if task, ok := q.pop(); !ok || task.ID != 1 {
		t.Fatalf("queued task lost on close: %v %v", task, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop should fail once drained after close")
	}
	q.push(&core.Task{ID: 2})
	if _, ok := q.pop(); ok {
		t.Fatal("push after close should be dropped")
	}
}

func TestTaskQueuePopBlocks(t *testing.T) {
	q := newTaskQueue()
	got := make(chan uint64, 1)
	go func() {
		task, ok := q.pop()
		if ok {
			got <- task.ID
		}
	}()
	select {
	case <-got:
		t.Fatal("pop returned without a task")
	case <-time.After(5 * time.Millisecond):
	}
	q.push(&core.Task{ID: 42})
	select {
	case id := <-got:
		if id != 42 {
			t.Fatalf("id=%d", id)
		}
	case <-time.After(time.Second):
		t.Fatal("pop never woke")
	}
}

func TestTaskQueueWaitBelow(t *testing.T) {
	q := newTaskQueue()
	for i := 0; i < 4; i++ {
		q.push(&core.Task{ID: uint64(i)})
	}
	released := make(chan struct{})
	go func() {
		q.waitBelow(3)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("waitBelow returned with 4 >= 3 queued")
	case <-time.After(5 * time.Millisecond):
	}
	q.pop()
	q.pop()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("waitBelow never released")
	}
}

func TestTaskBufferBatching(t *testing.T) {
	b := newTaskBuffer(3)
	if out := b.add(&core.Task{ID: 1}); out != nil {
		t.Fatal("premature flush")
	}
	if out := b.add(&core.Task{ID: 2}); out != nil {
		t.Fatal("premature flush")
	}
	out := b.add(&core.Task{ID: 3})
	if len(out) != 3 {
		t.Fatalf("flush len=%d", len(out))
	}
	if b.len() != 0 {
		t.Fatal("buffer not emptied")
	}
	b.add(&core.Task{ID: 4})
	if got := b.drain(); len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("drain: %v", got)
	}
}

func TestProgressCodec(t *testing.T) {
	p := &progressReport{
		Worker: 3, Inflight: 10, StoreSize: 7, TasksSent: 2, TasksRecv: 5,
		Activity: 99, SeedsDone: true, Results: 4,
		AggSet: true, AggBytes: []byte{1, 2, 3},
	}
	got, err := decodeProgress(encodeProgress(p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("got %+v want %+v", got, p)
	}
}

func TestProgressCodecNoAgg(t *testing.T) {
	p := &progressReport{Worker: 1, Inflight: 5}
	got, err := decodeProgress(encodeProgress(p))
	if err != nil || got.AggSet || got.AggBytes != nil {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestPullCodecs(t *testing.T) {
	ids := []graph.VertexID{5, 1, 900}
	got, err := decodePullReq(encodePullReq(ids))
	if err != nil || !reflect.DeepEqual(got, ids) {
		t.Fatalf("req: %v %v", got, err)
	}

	found := []*graph.Vertex{
		{ID: 1, Label: 2, Adj: []graph.VertexID{5, 9}},
		{ID: 5, Label: graph.NoLabel},
	}
	missing := []graph.VertexID{900}
	entries, err := decodePullResp(encodePullResp(found, missing))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries=%d", len(entries))
	}
	if !entries[0].Present || entries[0].V.ID != 1 || len(entries[0].V.Adj) != 2 {
		t.Fatalf("entry 0: %+v", entries[0])
	}
	if entries[2].Present || entries[2].ID != 900 {
		t.Fatalf("tombstone: %+v", entries[2])
	}
}

func TestTasksCodec(t *testing.T) {
	t1 := &core.Task{ID: 1, Round: 2}
	t1.Subgraph.AddVertices(1, 2)
	t1.Cands = []graph.VertexID{3}
	t2 := &core.Task{ID: 2}
	t2.Subgraph.AddVertex(9)
	got, err := decodeTasks(encodeTasks([]*core.Task{t1, t2}, core.NoContext{}), core.NoContext{})
	if err != nil || len(got) != 2 {
		t.Fatalf("%v %v", got, err)
	}
	if got[0].ID != 1 || got[0].Round != 2 || got[0].Subgraph.Len() != 2 {
		t.Fatalf("task 1: %+v", got[0])
	}
}

func TestMigrateCodec(t *testing.T) {
	thief, tnum, err := decodeMigrate(encodeMigrate(7, 32))
	if err != nil || thief != 7 || tnum != 32 {
		t.Fatalf("%d %d %v", thief, tnum, err)
	}
}

func TestEpochCodec(t *testing.T) {
	e, err := decodeEpoch(encodeEpoch(12345))
	if err != nil || e != 12345 {
		t.Fatalf("%d %v", e, err)
	}
}

func TestSnapshotCodec(t *testing.T) {
	s := &workerSnapshot{
		Epoch: 3, SeedCursor: 77, SeedsDone: true,
		TaskBytes: []byte{9, 9, 9},
		Results:   []string{"a", "b"},
		AggBytes:  []byte{4},
	}
	got, err := decodeSnapshot(encodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("got %+v want %+v", got, s)
	}
}

func TestSnapshotSinkMemoryAndDisk(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		sink, err := newSnapshotSink(dir, 1, 42, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if snap, err := sink.get(0); err != nil || snap != nil {
			t.Fatalf("empty sink: %v %v", snap, err)
		}
		// An uncommitted epoch is invisible to restore.
		want := &workerSnapshot{Epoch: 1, SeedCursor: 5, TaskBytes: []byte{}, Results: []string{}}
		crc1, err := sink.put(0, 1, encodeSnapshot(want))
		if err != nil {
			t.Fatal(err)
		}
		if snap, err := sink.get(0); err != nil || snap != nil {
			t.Fatalf("dir=%q: uncommitted epoch visible: %+v %v", dir, snap, err)
		}
		if err := sink.commit(1, []uint32{crc1}, nil); err != nil {
			t.Fatal(err)
		}
		got, err := sink.get(0)
		if err != nil || got == nil || got.Epoch != 1 || got.SeedCursor != 5 {
			t.Fatalf("dir=%q: got %+v err %v", dir, got, err)
		}
		// A newer committed epoch wins.
		want2 := &workerSnapshot{Epoch: 2, TaskBytes: []byte{}, Results: []string{}}
		crc2, err := sink.put(0, 2, encodeSnapshot(want2))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.commit(2, []uint32{crc2}, nil); err != nil {
			t.Fatal(err)
		}
		got, _ = sink.get(0)
		if got == nil || got.Epoch != 2 {
			t.Fatalf("dir=%q: stale snapshot %+v", dir, got)
		}
		if want := []int64{2, 1}; !reflect.DeepEqual(sink.committedEpochs(), want) {
			t.Fatalf("dir=%q: committed epochs %v, want %v", dir, sink.committedEpochs(), want)
		}
	}
}

func TestCostPolicy(t *testing.T) {
	p := CostPolicy{Tc: 100, Tr: 0.5}
	small := &core.Task{Cands: make([]graph.VertexID, 10)}
	small.ToPull = small.Cands // lr = 0
	if !p.Eligible(small) {
		t.Fatal("small remote task should migrate")
	}
	big := &core.Task{Cands: make([]graph.VertexID, 200)}
	big.ToPull = big.Cands
	if p.Eligible(big) {
		t.Fatal("big task should stay")
	}
	localTask := &core.Task{Cands: make([]graph.VertexID, 10)} // lr = 1
	if p.Eligible(localTask) {
		t.Fatal("local-heavy task should stay")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Workers <= 0 || c.Threads <= 0 || c.CacheCapacity <= 0 ||
		c.StoreMemCapacity <= 0 || c.LSHDims <= 0 || c.stealBatch <= 0 ||
		c.progressInterval <= 0 || c.Partitioner == nil ||
		c.cpqHighWater <= 0 || c.BufferFlush <= 0 {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	// The cache is the one window: no task-count bound on the CMQ, and the
	// CPQ bound follows the executor threads, not the cache.
	if _, ok := reflect.TypeOf(Config{}).FieldByName("MaxPendingPulls"); ok {
		t.Fatal("Config still has a task-count CMQ bound")
	}
	for _, capacity := range []int{64, 256, 1 << 16} {
		if got := (Config{Threads: 2, CacheCapacity: capacity}).Defaults().cpqHighWater; got != 4*2*8 {
			t.Fatalf("cache %d: CPQ high water %d, want %d", capacity, got, 4*2*8)
		}
	}
	// A deployment sets what it owns; the engine's tuning is constants, and
	// whether a job runs its plan is the algorithm's to declare.
	typ := reflect.TypeOf(Config{})
	var exported []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			exported = append(exported, f.Name)
		}
	}
	if len(exported) != 28 {
		t.Fatalf("Config has %d exported fields, want 28: %v", len(exported), exported)
	}
}

func TestTaskBufferConcurrent(t *testing.T) {
	b := newTaskBuffer(8)
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if out := b.add(&core.Task{}); out != nil {
					mu.Lock()
					total += len(out)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	total += len(b.drain())
	if total != 400 {
		t.Fatalf("lost tasks: %d", total)
	}
}
