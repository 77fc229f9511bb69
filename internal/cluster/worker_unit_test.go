package cluster

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/transport"
)

// newTestWorker builds a worker over a tiny 2-partition graph without
// starting its goroutines, for white-box pipeline tests.
func newTestWorker(t *testing.T) (*Worker, *graph.Graph, *transport.LocalNetwork) {
	t.Helper()
	g := gen.RMAT(gen.RMATConfig{Scale: 6, Edges: 300, Seed: 9})
	cfg := Config{Workers: 2, Threads: 1, progressInterval: time.Millisecond}.Defaults()
	assign, err := partition.Hash{}.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	vt := newVertexTables(g, assign, allWorkers(2))
	net := transport.NewLocal(transport.LocalConfig{Nodes: 3})
	t.Cleanup(net.Close)
	w, err := newWorker(0, cfg, algo.NewTriangleCount(), vt.dir, vt.locals[0], net.Endpoint(0),
		&metrics.Counters{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w, g, net
}

func TestComputeToPullDeduplicatesAndFiltersLocal(t *testing.T) {
	w, g, _ := newTestWorker(t)
	var local, remote graph.VertexID = -1, -1
	g.ForEach(func(v *graph.Vertex) bool {
		if w.dir.owner(v.ID) == 0 && local < 0 {
			local = v.ID
		}
		if w.dir.owner(v.ID) == 1 && remote < 0 {
			remote = v.ID
		}
		return local >= 0 && remote >= 0 == false
	})
	if local < 0 || remote < 0 {
		t.Skip("degenerate partition")
	}
	task := &core.Task{Cands: []graph.VertexID{
		local, remote, remote, graph.VertexID(1 << 40), // dup + dangling
	}}
	w.computeToPull(task)
	if len(task.ToPull) != 1 || task.ToPull[0] != remote {
		t.Fatalf("ToPull=%v want [%d]", task.ToPull, remote)
	}
}

// computeToPull's contract, whatever the list's order: first occurrences of
// the remote, owned candidates, in list order. A sorted list — what TC, MCF
// and GM produce — must get there without allocating.
func TestComputeToPullSortedIsAllocFree(t *testing.T) {
	w, g, _ := newTestWorker(t)
	oracle := func(cands []graph.VertexID) []graph.VertexID {
		var out []graph.VertexID
		seen := map[graph.VertexID]bool{}
		for _, id := range cands {
			if local := w.dir.local(id, w.id) != nil; local || seen[id] || w.dir.owner(id) < 0 {
				continue
			}
			seen[id] = true
			out = append(out, id)
		}
		return out
	}
	sorted := g.IDs()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sorted = append(sorted, sorted[len(sorted)-1], 1<<40) // adjacent dup + dangling
	shuffled := append(append([]graph.VertexID(nil), sorted...), sorted[:8]...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, cands := range map[string][]graph.VertexID{"sorted": sorted, "shuffled+dups": shuffled, "descent-to-dup": {5, 9, 5, 9, 7}} {
		task := &core.Task{Cands: cands}
		w.computeToPull(task)
		if want := oracle(cands); !reflect.DeepEqual(task.ToPull, want) && len(want)+len(task.ToPull) > 0 {
			t.Fatalf("%s: ToPull=%v want %v", name, task.ToPull, want)
		}
	}
	task := &core.Task{Cands: sorted, ToPull: make([]graph.VertexID, 0, len(sorted))}
	if n := testing.AllocsPerRun(20, func() { w.computeToPull(task) }); n != 0 {
		t.Fatalf("computeToPull on a sorted list allocates %v times per call", n)
	}
}

// resolve reads local candidates through the directory and remote ones from
// the pointers dispatch left in t.Pulled — the cache is consulted only for a
// remote candidate listed twice.
func TestResolveLocalThenPulled(t *testing.T) {
	w, g, _ := newTestWorker(t)
	var local, remote graph.VertexID = -1, -1
	g.ForEach(func(v *graph.Vertex) bool {
		switch {
		case w.dir.owner(v.ID) == 0 && local < 0:
			local = v.ID
		case w.dir.owner(v.ID) == 1 && remote < 0:
			remote = v.ID
		}
		return local < 0 || remote < 0
	})
	if local < 0 || remote < 0 {
		t.Skip("degenerate partition")
	}
	cached := g.Vertex(remote).Clone()
	w.cache.ForceInsert(cached)
	task := &core.Task{Cands: []graph.VertexID{local, remote, 1 << 40, remote}}
	w.computeToPull(task)
	w.dispatch(task)
	if w.cpq.len() != 1 || len(task.Pulled) != 1 || task.Pulled[0] != cached {
		t.Fatalf("dispatch on a cache hit: cpq=%d pulled=%v", w.cpq.len(), task.Pulled)
	}
	got := w.resolve(nil, task)
	if got[0] == nil || got[0].ID != local {
		t.Fatalf("local resolve failed: %+v", got[0])
	}
	if got[1] != cached || got[3] != cached {
		t.Fatalf("remote resolve failed: %+v, repeat %+v", got[1], got[3])
	}
	if got[2] != nil {
		t.Fatal("dangling candidate should resolve to nil")
	}
}

func TestSeedScanOrderIsHashShuffled(t *testing.T) {
	w, _, _ := newTestWorker(t)
	if len(w.localIDs) < 8 {
		t.Skip("too few local vertices")
	}
	ascending := true
	for i := 1; i < len(w.localIDs); i++ {
		if w.localIDs[i] < w.localIDs[i-1] {
			ascending = false
			break
		}
	}
	if ascending {
		t.Fatal("seed scan order is ID-sorted; the vertex-table hash shuffle is missing")
	}
}

func TestFlushPullsBatchesByOwner(t *testing.T) {
	w, g, net := newTestWorker(t)
	// Queue two pulls for worker 1 through dispatch's batch, then flush.
	var remotes []graph.VertexID
	g.ForEach(func(v *graph.Vertex) bool {
		if w.dir.owner(v.ID) == 1 {
			remotes = append(remotes, v.ID)
		}
		return len(remotes) < 3
	})
	if len(remotes) < 2 {
		t.Skip("degenerate partition")
	}
	task := &core.Task{Cands: remotes, ToPull: remotes}
	w.dispatch(task)
	w.flushPulls()
	// One batched message should arrive at worker 1 carrying all IDs.
	owner := newStream(net.Endpoint(1), 2)
	msg, ok := recvFor(owner, time.Second)
	if !ok || msg.Type != msgPullReq {
		t.Fatalf("no pull request: %+v ok=%v", msg, ok)
	}
	ids, err := decodePullReq(msg.Payload)
	if err != nil || len(ids) != len(remotes) {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
	if _, more := recvFor(owner, 10*time.Millisecond); more {
		t.Fatal("pulls were not batched into one message")
	}
}

// dispatch reads no clock: the pulls it opens carry no stamp until they leave.
func TestTickStampsDispatchedPulls(t *testing.T) {
	w, g, _ := newTestWorker(t)
	var remotes []graph.VertexID
	g.ForEach(func(v *graph.Vertex) bool {
		if w.dir.owner(v.ID) == 1 {
			remotes = append(remotes, v.ID)
		}
		return len(remotes) < 5
	})
	if len(remotes) < 5 {
		t.Skip("degenerate partition")
	}
	w.cache.ForceInsert(g.Vertex(remotes[0]).Clone()) // a hit ahead of the first miss
	w.dispatch(&core.Task{Cands: remotes, ToPull: remotes})
	if len(w.pulls) != len(remotes)-1 {
		t.Fatalf("%d pulls in flight, want %d", len(w.pulls), len(remotes)-1)
	}
	for id, ps := range w.pulls {
		if !ps.requestedAt.IsZero() {
			t.Fatalf("dispatch stamped the pull of %d: %+v", id, ps)
		}
	}
}

func TestHandlePullRespReadiesTask(t *testing.T) {
	w, g, _ := newTestWorker(t)
	var remotes []graph.VertexID
	g.ForEach(func(v *graph.Vertex) bool {
		if w.dir.owner(v.ID) == 1 {
			remotes = append(remotes, v.ID)
		}
		return len(remotes) < 2
	})
	if len(remotes) < 2 {
		t.Skip("degenerate partition")
	}
	task := &core.Task{Cands: remotes, ToPull: remotes}
	w.dispatch(task)
	if w.cpq.len() != 0 {
		t.Fatal("task ready before pulls resolved")
	}
	var found []*graph.Vertex
	for _, id := range remotes {
		found = append(found, g.Vertex(id))
	}
	w.handlePullResp(encodePullResp(found, nil))
	if w.cpq.len() != 1 {
		t.Fatalf("task not readied: cpq=%d", w.cpq.len())
	}
	// The pulled vertices are pinned for the task.
	for _, id := range remotes {
		if w.cache.Refs(id) < 1 {
			t.Fatalf("vertex %d not pinned", id)
		}
	}
}

func TestHandlePullRespTombstone(t *testing.T) {
	w, _, _ := newTestWorker(t)
	missing := graph.VertexID(1 << 30)
	task := &core.Task{Cands: []graph.VertexID{missing}, ToPull: []graph.VertexID{missing}}
	// Force-register the pull (computeToPull would drop a dangling ID;
	// this models an owner-map/graph inconsistency).
	w.pendMu.Lock()
	pt := &pendingTask{t: task, remaining: 1}
	w.pulls[missing] = &pullState{waiters: []pullWaiter{{pt: pt}}}
	w.pendingTasks++
	w.pendMu.Unlock()

	w.handlePullResp(encodePullResp(nil, []graph.VertexID{missing}))
	if w.cpq.len() != 1 {
		t.Fatal("tombstone did not unblock the task")
	}
	if _, ok := w.cache.Peek(missing); ok {
		t.Fatal("tombstone cached as a vertex")
	}
}

// A probe delayed past a newer one never lowers the wave a worker echoes:
// probe 3, then a late probe 2, are both answered with wave 3.
func TestDelayedProbeKeepsNewerWave(t *testing.T) {
	w, _, net := newTestWorker(t)
	master := net.Endpoint(2)
	for _, wave := range []int64{3, 2} {
		w.handle(transport.Message{From: 2, To: 0, Type: msgProbe, Payload: encodeEpoch(wave)})
	}
	var echoed []int64
	for {
		msg, ok := master.RecvTimeout(0)
		if !ok {
			break
		}
		if p, err := decodeProgress(msg.Payload); msg.Type == msgProgress && err == nil {
			echoed = append(echoed, p.Wave)
		}
	}
	if !reflect.DeepEqual(echoed, []int64{3, 3}) {
		t.Fatalf("probes 3 then 2 echoed %v, want [3 3]", echoed)
	}
}

// An idle thief has one steal REQ out at a time, and a lost reply (REQ,
// MIGRATE or msgNoTask dropped) costs it stealReplyHeartbeats: its next tick
// past them asks again. A msgNoTask that does come frees it after its backoff.
func TestLostStealReplyAsksAgainWithinTheBound(t *testing.T) {
	w, _, net := newTestWorker(t)
	w.cfg.Stealing = true
	w.seedCursor.Store(int64(len(w.localIDs)))
	master := net.Endpoint(2)
	reqs := func() (n int) {
		for {
			m, ok := master.RecvTimeout(0)
			if !ok {
				return n
			}
			if m.Type == msgStealReq {
				n++
			}
		}
	}
	t0 := time.Unix(0, 0).Add(time.Hour)
	bound := stealReplyHeartbeats * w.cfg.progressInterval
	for _, at := range []time.Duration{0, w.cfg.progressInterval, bound - w.cfg.progressInterval} {
		w.tick(t0.Add(at))
	}
	if n := reqs(); n != 1 {
		t.Fatalf("%d REQs within the bound of the first, want 1", n)
	}
	w.tick(t0.Add(bound))
	if n := reqs(); n != 1 {
		t.Fatalf("%d REQs once the reply was overdue, want a new one", n)
	}
	w.handle(transport.Message{From: 1, To: 0, Type: msgNoTask})
	for i := 1; i <= 9; i++ {
		w.tick(t0.Add(bound + time.Duration(i)*w.cfg.progressInterval))
	}
	if n := reqs(); n != 1 {
		t.Fatalf("%d REQs in the 9 ticks after a msgNoTask, want 1 once its backoff ran out", n)
	}
}

// TestUnpauseWakesSeedRanges: a checkpoint lands while seeds remain and the
// CPQ is empty. The one executor found every range withheld and waits on the
// CPQ; the gate opens while the checkpoint holds the pipeline paused, and no
// heartbeat comes to look again (it is an hour), so only the unpause can send
// the executor back to the scan. The job must end, with the exact count.
func TestUnpauseWakesSeedRanges(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 47})
	var open atomic.Bool
	asked := make(chan struct{})
	ask := sync.OnceFunc(func() { close(asked) })
	cfg := Config{Workers: 1, Threads: 1, progressInterval: time.Hour,
		seedHold: func(int, bool) bool { ask(); return !open.Load() }}
	s, err := NewSession(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	j, err := s.Launch(algo.NewTriangleCount(), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-asked
	wk := goroutineWorkers(j)(0)
	wk.cutMu.Lock() // the checkpoint cuts, and unpauses, only after the gate opens
	if err := j.master.ep.Send(0, msgCheckpointReq, encodeCheckpointReq(1, noEpoch)); err != nil {
		t.Fatal(err)
	}
	for !wk.paused.Load() {
		runtime.Gosched()
	}
	open.Store(true)
	wk.cutMu.Unlock()
	var res *Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = j.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		wk.cpq.kick() // let the job end, so the session can close
		<-done
		t.Fatal("the job did not end: nothing woke the executor after the checkpoint")
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.AggGlobal.(int64), algo.RefTriangles(g); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
}

// TestSumAggUpdateAllocFree: a core.SumInt64Aggregator's partial is a
// typed int64, so folding a task's count in boxes nothing, and AggGlobal,
// the progress report and a snapshot read the same sum.
func TestSumAggUpdateAllocFree(t *testing.T) {
	w, _, _ := newTestWorker(t)
	if !w.sumAgg {
		t.Fatal("TC's aggregator must take the typed sum path")
	}
	// AllocsPerRun makes one warm-up call before the 100 it counts.
	if n := testing.AllocsPerRun(100, func() { w.AggUpdate(int64(1000)) }); n != 0 {
		t.Fatalf("AggUpdate allocates %v times a call", n)
	}
	const want = 101 * 1000
	if got := w.AggGlobal(); got != int64(want) {
		t.Fatalf("AggGlobal = %v, want %d", got, want)
	}
	w.aggMu.Lock()
	got := w.partialAgg()
	w.aggMu.Unlock()
	if got != int64(want) {
		t.Fatalf("partial = %v, want %d", got, want)
	}
	w.setPartialAgg(int64(7))
	w.AggUpdate(int64(1))
	if got := w.AggGlobal(); got != int64(8) {
		t.Fatalf("after a restore to 7 and one update: %v, want 8", got)
	}
}
