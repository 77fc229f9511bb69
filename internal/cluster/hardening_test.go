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

// TestRetryStalePullsReresolvesOwner registers an overdue pull whose
// cached owner snapshot is wrong (points at the master node) and checks
// the retry is sent to the vertex's actual owner. Before the fix,
// retryStalePulls resent to the stale ps.owner forever, so a pull issued
// just before a failover could never complete.
func TestRetryStalePullsReresolvesOwner(t *testing.T) {
	w, g, net := newTestWorker(t)
	var remote graph.VertexID = -1
	g.ForEach(func(v *graph.Vertex) bool {
		if w.dir.owner(v.ID) == 1 {
			remote = v.ID
			return false
		}
		return true
	})
	if remote < 0 {
		t.Skip("degenerate partition")
	}
	w.pendMu.Lock()
	w.pulls[remote] = &pullState{owner: 2 /* wrong: the master node */}
	w.pendMu.Unlock()

	w.retryStalePulls()
	w.flushPulls() // the heartbeat's next step: retries ride the flush

	msg, ok := net.Endpoint(1).RecvTimeout(time.Second)
	if !ok || msg.Type != msgPullReq {
		t.Fatalf("no retried pull at the true owner: %+v ok=%v", msg, ok)
	}
	ids, err := decodePullReq(msg.Payload)
	if err != nil || len(ids) != 1 || ids[0] != remote {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
	if _, stray := net.Endpoint(2).RecvTimeout(10 * time.Millisecond); stray {
		t.Fatal("retry also sent to the stale owner")
	}
	w.pendMu.Lock()
	ps := w.pulls[remote]
	if ps.owner != 1 || ps.attempts != 1 || !ps.retryAt.After(time.Now()) {
		t.Fatalf("retry state not updated: %+v", ps)
	}
	w.pendMu.Unlock()
}

// TestRetryDelayBacksOffAndCaps checks the exponential growth, the cap at
// 16× PullRetryBase and the ±25%% jitter envelope.
func TestRetryDelayBacksOffAndCaps(t *testing.T) {
	w, _, _ := newTestWorker(t)
	base := w.cfg.pullRetryBase
	max := 16 * base
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	for i := 0; i < 50; i++ {
		if d := w.retryDelay(0); d < base*3/4 || d > base*5/4 {
			t.Fatalf("retryDelay(0) = %v outside [%v, %v]", d, base*3/4, base*5/4)
		}
		if d := w.retryDelay(1000); d < max*3/4 || d > max*5/4 {
			t.Fatalf("retryDelay(1000) = %v outside [%v, %v]", d, max*3/4, max*5/4)
		}
	}
	jittered := false
	first := w.retryDelay(2)
	for i := 0; i < 20 && !jittered; i++ {
		jittered = w.retryDelay(2) != first
	}
	if !jittered {
		t.Fatal("retryDelay shows no jitter")
	}
}

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
	snap := &workerSnapshot{Epoch: 1, SeedsDone: true, TaskBytes: taskBytes}

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
	// discards queued messages).
	var thiefMsgs []transport.Message
	for {
		msg, ok := net.Endpoint(1).RecvTimeout(100 * time.Millisecond)
		if !ok {
			break
		}
		thiefMsgs = append(thiefMsgs, msg)
	}
	w.stop()
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
		got, err := decodeTasks(msg.Payload, algo)
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
