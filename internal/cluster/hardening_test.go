package cluster

import (
	"fmt"
	"testing"
	"time"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/spill"
	"gminer/internal/store"
	"gminer/internal/transport"
)

// markAlgo runs one update round per task, emits a record naming the task
// and dies. The sleep keeps tasks in the store long enough for a MIGRATE
// to race the restore below.
type markAlgo struct{ core.NoContext }

func (*markAlgo) Name() string                                 { return "mark" }
func (*markAlgo) Seed(v *graph.Vertex, spawn func(*core.Task)) {}
func (*markAlgo) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	time.Sleep(500 * time.Microsecond)
	env.Emit(fmt.Sprintf("t %d", t.ID))
}

// TestRestoreVsMigrateRace delivers a MIGRATE order into a worker's
// mailbox before the worker is rebuilt from a checkpoint, so the steal
// executes while/just after applySnapshot repopulates the task store —
// the window a recovering victim actually hits, since the master keeps
// scheduling steals for it. Every restored task must run exactly once:
// either locally (a record) or shipped to the thief (msgTasks), never
// both, never zero.
func TestRestoreVsMigrateRace(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 6, Edges: 300, Seed: 9})
	algo := &markAlgo{}
	cfg := Config{
		Workers:          2,
		Threads:          2,
		progressInterval: time.Millisecond,
		stealBatch:       8,
		// Tr above every locality rate admits the all-local tasks below
		// (lr = 1), which the default Tr refuses.
		stealLocalityMax: 2,
	}.Defaults()
	assign, err := partition.Hash{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Build the snapshot the worker will restore: one all-local task per
	// worker-0 vertex, serialized through a real task store.
	var want []uint64
	var tasks []*core.Task
	for i, vid := range assign.Local(g, 0) {
		task := &core.Task{ID: uint64(i + 1), Cands: []graph.VertexID{vid}}
		task.Subgraph.AddVertex(vid)
		tasks = append(tasks, task)
		want = append(want, task.ID)
	}
	if len(tasks) < 8 {
		t.Skip("degenerate partition")
	}
	sp, err := spill.New("", &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	st := store.New(store.Config{MemCapacity: 256, BlockCapacity: 64}, algo, sp, &metrics.Counters{})
	if err := st.Insert(tasks); err != nil {
		t.Fatal(err)
	}
	taskBytes, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// One task per local vertex, and the seed scan past them all.
	snap := &workerSnapshot{Epoch: 1, SeedCursor: int64(len(tasks)), TaskBytes: taskBytes}

	net := transport.NewLocal(transport.LocalConfig{Nodes: 3})
	// The racing MIGRATE: queued before the worker exists, handled the
	// moment its comm loop starts, while the restored tasks drain.
	if err := net.Endpoint(2).Send(0, msgMigrate, encodeMigrate(1, cfg.stealBatch)); err != nil {
		t.Fatal(err)
	}

	vt := newVertexTables(g, assign, allWorkers(assign.K))
	w, err := newWorker(0, cfg, algo, vt.dir, vt.locals[0], net.Endpoint(0), &metrics.Counters{}, nil, snap)
	if err != nil {
		t.Fatal(err)
	}
	w.start()
	deadline := time.Now().Add(10 * time.Second)
	for w.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tasks stuck: inflight=%d store=%d", w.inflight.Load(), w.store.Size())
		}
		time.Sleep(time.Millisecond)
	}
	// Drain the thief's mailbox before tearing the network down (close
	// discards queued messages), once the worker stopped probing the thief
	// that acks nothing; the thief's stream takes the probes in.
	w.stop()
	thief := newStream(net.Endpoint(1), 2)
	var thiefMsgs []transport.Message
	for {
		msg, ok := recvFor(thief, 100*time.Millisecond)
		if !ok {
			break
		}
		thiefMsgs = append(thiefMsgs, msg)
	}
	net.Close()
	w.wg.Wait()
	w.spiller.Close()

	// Reconstruct the fate of every task.
	seen := make(map[uint64]int)
	local := w.takeResults()
	for _, rec := range local {
		var id uint64
		if _, err := fmt.Sscanf(rec, "t %d", &id); err != nil {
			t.Fatalf("bad record %q", rec)
		}
		seen[id]++
	}
	shipped := 0
	for _, msg := range thiefMsgs {
		if msg.Type != msgTasks {
			continue
		}
		got, err := core.DecodeTasks(msg.Payload, algo)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range got {
			seen[task.ID]++
			shipped++
		}
	}
	if shipped == 0 {
		t.Log("warning: migrate lost the race; only the local path was exercised")
	}
	if len(seen) != len(want) {
		t.Fatalf("task count: got %d (local %d + shipped %d) want %d",
			len(seen), len(local), shipped, len(want))
	}
	for _, id := range want {
		if seen[id] != 1 {
			t.Fatalf("task %d handled %d times", id, seen[id])
		}
	}
}
