package cluster

import (
	"slices"
	"testing"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
)

// TestIntakeRoutesReadyTasksToCPQ: a task waits in the store only while it
// waits for data. On worker 0 of a 2-worker oriented view, a task with
// nothing to pull that the steal policy keeps (lr ≥ Tr) lands in the CPQ and
// never in the store; one with pulls, and one whose candidates are all
// resident (lr = 0, so stealing may take it), land in the store. Seeds,
// stolen batches and snapshot restores follow the same rule.
func TestIntakeRoutesReadyTasksToCPQ(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 9000, Seed: 5})
	ot, view, tc := orientedTables(t, g, partition.Hash{}, 2, allWorkers(2))
	owned, resident, remote := residentKinds(ot.dir, view.g, 0)
	if len(owned) < 3 || len(resident) < 4 || len(remote) < 1 {
		t.Fatalf("degenerate partition: %d owned, %d resident, %d remote", len(owned), len(resident), len(remote))
	}
	pulls := slices.Concat(owned[:2], remote[:1])
	slices.Sort(pulls)
	kinds := []struct {
		name  string
		cands []graph.VertexID
		ready bool
	}{
		{"nothing to pull, kept", slices.Clone(owned[:3]), true},
		{"pulls", pulls, false},
		{"all resident", slices.Clone(resident[:4]), false},
	}
	tasks := func() []*core.Task {
		out := make([]*core.Task, len(kinds))
		for i, k := range kinds {
			out[i] = &core.Task{ID: uint64(i + 1), Cands: slices.Clone(k.cands)}
		}
		return out
	}
	newW := func(restore *workerSnapshot) *Worker {
		w, err := newWorker(0, Config{Workers: 2, Threads: 1}.Defaults(), tc, ot.dir, ot.locals[0], discardEndpoint{}, &metrics.Counters{}, nil, restore)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.stop(); w.spiller.Close() })
		return w
	}
	// landed checks every kind's task is where the rule puts it, and nothing
	// else is anywhere.
	landed := func(path string, w *Worker) {
		t.Helper()
		w.flushBatch(w.buffer.drain())
		var inCPQ []uint64
		for w.cpq.len() > 0 {
			task, _ := w.cpq.pop()
			inCPQ = append(inCPQ, task.ID)
		}
		stored := popAll(w.store)
		inStore := map[uint64]bool{}
		for _, task := range stored {
			inStore[task.ID] = true
		}
		for i, k := range kinds {
			id := uint64(i + 1)
			if slices.Contains(inCPQ, id) != k.ready || inStore[id] == k.ready {
				t.Errorf("%s: %q task in the CPQ %v, in the store %v; want the CPQ %v", path, k.name, slices.Contains(inCPQ, id), inStore[id], k.ready)
			}
		}
		if len(inCPQ)+len(stored) != len(kinds) || w.inflight.Load() != int64(len(kinds)) {
			t.Errorf("%s: %d tasks in the CPQ, %d in the store, %d in flight; want %d", path, len(inCPQ), len(stored), w.inflight.Load(), len(kinds))
		}
	}

	w := newW(nil)
	for _, task := range tasks() {
		w.intake(task, false)
	}
	landed("seed", w)

	w = newW(nil)
	w.handleTasks(1, taskList(tasks(), tc))
	landed("stolen batch", w)
	if w.tasksRecv.Load() != int64(len(kinds)) {
		t.Errorf("stolen batch: %d tasks received, want %d", w.tasksRecv.Load(), len(kinds))
	}

	landed("snapshot restore", newW(&workerSnapshot{TaskBytes: taskList(tasks(), tc)}))
}
