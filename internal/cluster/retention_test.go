package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
)

// freeWatch records which watched objects the collector has freed.
type freeWatch struct {
	mu    sync.Mutex
	names []string
	freed map[string]bool
}

// watchFree arms a finalizer on obj under name. The finalizer must not
// capture obj, or obj could never be freed.
func watchFree[T any](fw *freeWatch, obj *T, name string) {
	fw.mu.Lock()
	fw.names = append(fw.names, name)
	fw.mu.Unlock()
	runtime.SetFinalizer(obj, func(*T) {
		fw.mu.Lock()
		fw.freed[name] = true
		fw.mu.Unlock()
	})
}

// await collects until every watched object is freed, failing the test if
// some are still reachable after a bounded number of cycles.
func (fw *freeWatch) await(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		fw.mu.Lock()
		var held []string
		for _, name := range fw.names {
			if !fw.freed[name] {
				held = append(held, name)
			}
		}
		fw.mu.Unlock()
		if len(held) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("still reachable: %v", held)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWaitReleasesEngineState: a caller that keeps a *Job after Wait keeps
// its Result and nothing of the engine. Holding an oriented tc job of epoch
// 0, its workers' RCV caches and epoch 0's G⁺ — the graph, its vertex array,
// which the epoch's directory points into, and its forward-list array — are
// freed once the session has moved on to epoch 1's view, though that view
// was patched from epoch 0's: a patch shares nothing with its ancestor.
// KillWorker and RecoverWorker on the finished job stay no-ops.
func TestWaitReleasesEngineState(t *testing.T) {
	g := gen.ErdosRenyi(400, 1600, 21)
	batch := gen.Deltas(gen.ErdosRenyi(400, 1600, 21), gen.DeltasConfig{Batches: 1, Ops: 40, Seed: 13})[0]
	s, err := NewSession(g, dynConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sp := jobspec.Spec{App: "tc"}.Normalize()
	launch := func() *Job {
		t.Helper()
		j, err := s.Launch(algo.NewTriangleCount(), JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	fw := &freeWatch{freed: make(map[string]bool)}
	j := launch()
	// The host holds the workers until Wait collects them.
	<-j.master.doneCh
	h := j.host.(*goroutineHost)
	h.mu.Lock()
	for i, w := range h.workers {
		watchFree(fw, w.cache, fmt.Sprintf("worker %d's RCV cache", i))
	}
	h.mu.Unlock()
	s.oriented.mu.Lock()
	gplus := s.oriented.g
	s.oriented.mu.Unlock()
	watchFree(fw, gplus, "epoch 0's G⁺")
	gplus.ForEach(func(v *graph.Vertex) bool {
		watchFree(fw, v, "epoch 0's G⁺ vertex array") // the first vertex heads the array
		return false
	})
	gplus.ForEach(func(v *graph.Vertex) bool {
		if len(v.Adj) == 0 {
			return true
		}
		watchFree(fw, &v.Adj[0], "epoch 0's G⁺ forward-list array") // so does the first row with an entry
		return false
	})

	want := algo.RefTriangles(g)
	res, err := j.Wait()
	if err != nil || res.AggGlobal != any(want) {
		t.Fatalf("epoch 0: %v triangles (err %v), reference %d", res.AggGlobal, err, want)
	}
	if _, err := s.ApplyMutations(batch); err != nil {
		t.Fatal(err)
	}
	next, err := launch().Wait()
	if err != nil || next.AggGlobal != any(algo.RefTriangles(g)) {
		t.Fatalf("epoch 1: %v triangles (err %v), reference %d", next.AggGlobal, err, algo.RefTriangles(g))
	}
	if recut, _ := s.oriented.patchState(); recut >= g.NumVertices() {
		t.Fatalf("epoch 1's view cut %d of %d rows: not a patch of epoch 0's", recut, g.NumVertices())
	}
	fw.await(t)

	j.KillWorker(0)
	if err := j.RecoverWorker(0); err != nil {
		t.Fatalf("RecoverWorker on a finished job: %v", err)
	}
	if again, err := j.Wait(); again != res || err != nil {
		t.Fatalf("Wait after kill/recover on a finished job: %p %v, want %p", again, err, res)
	}
	runtime.KeepAlive(j)
}
