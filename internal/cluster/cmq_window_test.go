package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
)

// TestCMQWindowCountsVertices: the CMQ window is the cache, counted in
// vertices. One worker's pipeline is stepped by hand — the test is its
// retriever loop, the remote owner answering every pull in flight once the
// window shuts, and the executor running what became ready — over tasks of k
// remote candidates each, none shared, and one last task whose to_pull alone
// is larger than the cache. Then a whole job runs on a cache of 4.
func TestCMQWindowCountsVertices(t *testing.T) {
	const capacity, k, tasks = 96, 3, 120
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 12000, Seed: 5})
	assign, err := partition.Hash{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	vt := newVertexTables(g, assign, allWorkers(2))
	cfg := Config{Workers: 2, Threads: 1, CacheCapacity: capacity, progressInterval: time.Hour}.Defaults()
	counters := &metrics.Counters{}
	w, err := newWorker(0, cfg, noUpdate{algo.NewTriangleCount()}, vt.dir, vt.locals[0], discardEndpoint{}, counters, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.stop(); w.spiller.Close() })

	var remote []graph.VertexID
	for _, id := range g.IDs() {
		if assign.Owner(id) == 1 {
			remote = append(remote, id)
		}
	}
	slices.Sort(remote)
	big := capacity + 8
	if len(remote) < tasks*k+big {
		t.Fatalf("%d remote vertices, need %d", len(remote), tasks*k+big)
	}
	for i := 0; i <= tasks; i++ {
		cands := remote[i*k : (i+1)*k]
		if i == tasks {
			cands = remote[i*k : i*k+big]
		}
		task := &core.Task{Cands: cands}
		w.assignID(task)
		w.intake(task, false)
	}
	w.flushBatch(w.buffer.drain())

	answer := func() {
		w.pendMu.Lock()
		var found []*graph.Vertex
		for id := range w.pulls {
			found = append(found, g.Vertex(id))
		}
		w.pendMu.Unlock()
		w.handlePullResp(encodePullResp(found, nil))
		for w.cpq.len() > 0 {
			task, _ := w.cpq.pop()
			w.runTask(task, nil)
		}
	}
	peak := 0
	for {
		w.pendMu.Lock()
		shut, parked, held := w.windowShut(), w.pendingTasks, w.cache.Pinned()+len(w.pulls)
		w.pendMu.Unlock()
		peak = max(peak, parked)
		if held > capacity+big {
			t.Fatalf("%d vertices pinned or in flight with %d tasks parked: over cache %d + the largest to_pull %d", held, parked, capacity, big)
		}
		if shut && parked == 0 {
			t.Fatalf("window shut with nothing parked (%d pinned or in flight): no response would ever open it", held)
		}
		if shut {
			answer()
			continue
		}
		task, ok := w.store.TryPop()
		if !ok {
			if parked == 0 {
				break
			}
			answer()
			continue
		}
		w.dispatch(task)
	}
	// The old window held max(16, capacity/16) tasks whatever they pinned.
	if want := (capacity + k - 1) / k; peak != want || peak <= 16 {
		t.Fatalf("peak %d tasks parked, want cache / k = %d (> 16)", peak, want)
	}
	snap := counters.Snapshot()
	if snap.TasksDone != tasks+1 || w.inflight.Load() != 0 {
		t.Fatalf("%d tasks done, %d in flight; want %d done", snap.TasksDone, w.inflight.Load(), tasks+1)
	}
	if snap.CacheOverflows == 0 || w.cache.Pinned() != 0 || w.cache.Len() > capacity {
		t.Fatalf("the large task: %d overflows, %d still pinned, %d cached", snap.CacheOverflows, w.cache.Pinned(), w.cache.Len())
	}

	// The real retriever on a cache smaller than most tasks' to_pull: the
	// window is shut nearly all the time and the job still finishes, exact.
	t.Run("job", func(t *testing.T) {
		g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 8000, Seed: 3})
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
				j, err := Start(g, algo.NewTriangleCount(), Config{
					Workers: 2, Threads: 2, Partitioner: partition.Hash{}, UseLSH: true,
					CacheCapacity: 4, CacheShards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					j.Wait()
				}()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("job stalled: the retriever never dispatched past a full cache")
				}
				res, err := j.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if want := algo.RefTriangles(g); res.AggGlobal != want {
					t.Fatalf("aggregate %v, want %d", res.AggGlobal, want)
				}
				if res.Total.CacheOverflows == 0 {
					t.Fatal("no insert past a 4-vertex cache")
				}
			})
		}
	})
}

// TestCacheOverflowsRideTheResult: a worker process ships its overflow count
// on the job result, and a result without overflows says nothing about them.
func TestCacheOverflowsRideTheResult(t *testing.T) {
	for _, n := range []int64{0, 7} {
		b := encodeCtrl(jobResultMsg{Worker: 1, Counters: metrics.Snapshot{TasksDone: 3, CacheOverflows: n}})
		var got jobResultMsg
		if err := decodeCtrl(b, &got); err != nil {
			t.Fatal(err)
		}
		if got.Counters.CacheOverflows != n || got.Counters.TasksDone != 3 {
			t.Fatalf("sent %d overflows, decoded %+v", n, got.Counters)
		}
		if named := strings.Contains(string(b), "CacheOverflows"); named != (n > 0) {
			t.Fatalf("%d overflows: field on the wire = %v (%s)", n, named, b)
		}
	}
}
