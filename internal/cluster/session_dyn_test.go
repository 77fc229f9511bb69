package cluster

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
)

func dynConfig(workers int) Config {
	return Config{
		Workers:     workers,
		Threads:     2,
		Dynamic:     true,
		Partitioner: partition.Blocked{Shift: 4},
	}
}

// sameTables compares two sessions' view of worker w byte for byte: same
// scan order, same footprint, and behind every scanned ID the directory of
// each finds a vertex of w's with identical adjacency and annotations.
func sameTables(t *testing.T, w int, a, b vertexTables) {
	t.Helper()
	la, lb := a.locals[w], b.locals[w]
	if !reflect.DeepEqual(la.ids, lb.ids) {
		t.Fatalf("worker %d: scan order diverged (%d vs %d ids)", w, len(la.ids), len(lb.ids))
	}
	if la.footprint != lb.footprint {
		t.Fatalf("worker %d: footprint %d != %d", w, la.footprint, lb.footprint)
	}
	for _, id := range la.ids {
		va, vb := a.dir.local(id, w), b.dir.local(id, w)
		if va == nil || vb == nil {
			t.Fatalf("worker %d: vertex %d missing from a directory (warm %v, fresh %v)", w, id, va != nil, vb != nil)
		}
		if !reflect.DeepEqual(va.Adj, vb.Adj) || va.Label != vb.Label || !reflect.DeepEqual(va.Attrs, vb.Attrs) {
			t.Fatalf("worker %d: vertex %d contents diverged", w, id)
		}
	}
}

// TestDynamicSessionMatchesFreshPrepare is the warm-session half of the
// incremental-repartitioning differential gate: after each mutation
// batch, the warm session's incrementally migrated assignment and local
// tables must be byte-identical to a from-scratch NewSession over a
// replayed graph — and jobs served from the warm session must return the
// byte-identical results.
func TestDynamicSessionMatchesFreshPrepare(t *testing.T) {
	const workers = 3
	build := func() *graph.Graph { return gen.ErdosRenyi(400, 1600, 21) }

	g := build()
	s, err := NewSession(g, dynConfig(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batches := gen.Deltas(g, gen.DeltasConfig{Batches: 3, Ops: 40, Seed: 13})
	for bi, b := range batches {
		epr, err := s.ApplyMutations(b)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		if epr.Epoch != int64(bi+1) {
			t.Fatalf("batch %d: epoch %d, want %d", bi, epr.Epoch, bi+1)
		}

		replay := build()
		for _, pb := range batches[:bi+1] {
			dyngraph.ApplyToGraph(replay, pb)
		}
		fresh, err := NewSession(replay, dynConfig(workers))
		if err != nil {
			t.Fatalf("batch %d: fresh session: %v", bi, err)
		}

		g.ForEach(func(v *graph.Vertex) bool {
			if s.assign.Owner(v.ID) != fresh.assign.Owner(v.ID) {
				t.Fatalf("batch %d: owner of %d diverged", bi, v.ID)
			}
			return true
		})
		for w := 0; w < workers; w++ {
			sameTables(t, w, s.tables, fresh.tables)
		}

		// Served results across the epoch boundary: warm == from-scratch.
		warmTC, err := runOn(s, algo.NewTriangleCount())
		if err != nil {
			t.Fatalf("batch %d: warm tc: %v", bi, err)
		}
		freshTC, err := runOn(fresh, algo.NewTriangleCount())
		if err != nil {
			t.Fatalf("batch %d: fresh tc: %v", bi, err)
		}
		if !reflect.DeepEqual(warmTC.AggGlobal, freshTC.AggGlobal) {
			t.Fatalf("batch %d: tc aggregate %v != %v", bi, warmTC.AggGlobal, freshTC.AggGlobal)
		}
		warmQC, err := runOn(s, algo.NewQuasiClique(0.8, 3))
		if err != nil {
			t.Fatalf("batch %d: warm qc: %v", bi, err)
		}
		freshQC, err := runOn(fresh, algo.NewQuasiClique(0.8, 3))
		if err != nil {
			t.Fatalf("batch %d: fresh qc: %v", bi, err)
		}
		if !reflect.DeepEqual(warmQC.Records, freshQC.Records) {
			t.Fatalf("batch %d: qc records diverged (%d vs %d)", bi, len(warmQC.Records), len(freshQC.Records))
		}
		fresh.Close()
	}
}

func runOn(s *Session, a core.Algorithm) (*Result, error) {
	j, err := s.Launch(a, JobOptions{})
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

func TestDynamicSessionEpochSemantics(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 3)
	s, err := NewSession(g, dynConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp0 := s.Fingerprint()
	if s.GraphEpoch() != 0 || !s.Dynamic() {
		t.Fatalf("fresh dynamic session: epoch %d dynamic %v", s.GraphEpoch(), s.Dynamic())
	}
	epr, err := s.ApplyMutations(dyngraph.Batch{Ops: []dyngraph.Mutation{{Op: dyngraph.OpAddEdge, U: 1, W: 50}}})
	if err != nil {
		t.Fatal(err)
	}
	if epr.Epoch != 1 || s.GraphEpoch() != 1 {
		t.Fatalf("epoch after one batch: %d / %d", epr.Epoch, s.GraphEpoch())
	}
	if s.Fingerprint() == fp0 {
		t.Fatal("fingerprint did not change with the graph epoch")
	}

	// Static sessions refuse mutations.
	g2 := gen.ErdosRenyi(50, 100, 1)
	static, err := NewSession(g2, Config{Workers: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	if static.Dynamic() {
		t.Fatal("static session claims to be dynamic")
	}
	if _, err := static.ApplyMutations(dyngraph.Batch{Ops: []dyngraph.Mutation{{Op: dyngraph.OpDelEdge, U: 0, W: 1}}}); err == nil {
		t.Fatal("static session accepted a mutation batch")
	}

	// Dynamic sessions require the blocked partitioner.
	if _, err := NewSession(g2, Config{Workers: 2, Threads: 1, Dynamic: true}); err == nil {
		t.Fatal("dynamic session accepted the default (non-decomposable) partitioner")
	}
}

// TestDynamicSessionConcurrentJobsAndMutations races job launches against
// mutation batches: every job must observe a whole epoch (no torn reads —
// this test is what -race patrols), and the final state must equal a
// replayed from-scratch prepare.
func TestDynamicSessionConcurrentJobsAndMutations(t *testing.T) {
	build := func() *graph.Graph { return gen.ErdosRenyi(300, 900, 5) }
	g := build()
	s, err := NewSession(g, dynConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batches := gen.Deltas(g, gen.DeltasConfig{Batches: 3, Ops: 16, Seed: 2})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			j, err := s.Launch(algo.NewTriangleCount(), JobOptions{})
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if _, err := j.Wait(); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for bi, b := range batches {
			if _, err := s.ApplyMutations(b); err != nil {
				t.Errorf("batch %d: %v", bi, err)
				return
			}
		}
	}()
	wg.Wait()
	if s.GraphEpoch() != int64(len(batches)) {
		t.Fatalf("final epoch %d, want %d", s.GraphEpoch(), len(batches))
	}

	replay := build()
	for _, b := range batches {
		dyngraph.ApplyToGraph(replay, b)
	}
	fresh, err := NewSession(replay, dynConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	warm, err := runOn(s, algo.NewTriangleCount())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runOn(fresh, algo.NewTriangleCount())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.AggGlobal, ref.AggGlobal) {
		t.Fatalf("post-churn tc aggregate %v != fresh %v", warm.AggGlobal, ref.AggGlobal)
	}
}

// TestOrientedViewFollowsGraphEpoch: on a dynamic session every oriented
// job runs on the view of the epoch it leased. After each of eight
// mutation batches — each of which changes the triangle count, so a view
// left over from the previous epoch cannot pass — oriented TC equals the
// generic job and the scalar reference, and the view is a from-scratch
// orientation of the mutated graph, byte for byte, though it was patched: it
// cut fewer rows than the graph has. Applying a batch is what retires the
// view, not the next job's luck. Batches served by generic jobs alone leave
// the view as it was and pile up for the next oriented job, which patches
// them all at once.
func TestOrientedViewFollowsGraphEpoch(t *testing.T) {
	g, _ := gen.Community(gen.CommunityConfig{Communities: 60, MinSize: 5, MaxSize: 10, PIn: 0.7, Bridges: 120, Seed: 31})
	s, err := NewSession(g, dynConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	count := func(generic bool) int64 {
		t.Helper()
		a := algo.NewTriangleCount()
		a.Generic = generic
		j, err := s.Launch(a, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if generic != (res.ResidentLists == 0) {
			t.Fatalf("generic=%v: the job reports %d resident lists: the other arm ran", generic, res.ResidentLists)
		}
		return res.AggGlobal.(int64)
	}
	// exactPatch holds the view to a fresh orientation of the graph, and the
	// cut that made it to a patch.
	exactPatch := func(bi int) {
		t.Helper()
		if !reflect.DeepEqual(s.oriented.g, graph.Orient(g)) {
			t.Fatalf("batch %d: the view differs from a fresh orientation of the graph", bi)
		}
		if recut, pending := s.oriented.patchState(); recut >= g.NumVertices() || pending != 0 {
			t.Fatalf("batch %d: the view's cut cut %d of %d rows (%d still pending): not a patch", bi, recut, g.NumVertices(), pending)
		}
	}
	prev := algo.RefTriangles(g)
	if got := count(false); got != prev {
		t.Fatalf("epoch 0: oriented tc %d, reference %d", got, prev)
	}
	if recut, _ := s.oriented.patchState(); recut != g.NumVertices() {
		t.Fatalf("epoch 0: the first cut cut %d of %d rows", recut, g.NumVertices())
	}
	stream := gen.Deltas(g, gen.DeltasConfig{Batches: 12, Ops: 60, Seed: 5})
	for bi, b := range stream[:8] {
		stale := s.oriented.g
		if _, err := s.ApplyMutations(b); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		want := algo.RefTriangles(g)
		if want == prev {
			t.Fatalf("batch %d left the triangle count at %d: a stale view would go unnoticed", bi, want)
		}
		if got := count(true); got != want {
			t.Fatalf("batch %d: generic tc %d, reference %d", bi, got, want)
		}
		if s.oriented.g != stale {
			t.Fatalf("batch %d: a generic job recut the oriented view", bi)
		}
		if got := count(false); got != want {
			t.Fatalf("batch %d: oriented tc %d, reference %d (previous epoch: %d)", bi, got, want, prev)
		}
		if s.oriented.g == stale || s.oriented.epoch != s.GraphEpoch() {
			t.Fatalf("batch %d: oriented job ran on the view of epoch %d at epoch %d", bi, s.oriented.epoch, s.GraphEpoch())
		}
		exactPatch(bi)
		for w := range s.tables.locals {
			if lt := s.oriented.locals[w]; !reflect.DeepEqual(lt.ids, s.tables.locals[w].ids) {
				t.Fatalf("batch %d: worker %d oriented table scans %d vertices, undirected %d", bi, w, len(lt.ids), len(s.tables.locals[w].ids))
			}
		}
		prev = want
	}

	// Generic jobs alone over four epochs: the view stays the one cut at
	// epoch 8 while the batches' touched vertices pile up, and the next
	// oriented job patches them in one cut.
	stale, pending := s.oriented.g, 0
	for bi, b := range stream[8:] {
		if _, err := s.ApplyMutations(b); err != nil {
			t.Fatalf("batch %d: %v", 8+bi, err)
		}
		if got, want := count(true), algo.RefTriangles(g); got != want {
			t.Fatalf("batch %d: generic tc %d, reference %d", 8+bi, got, want)
		}
		_, now := s.oriented.patchState()
		if s.oriented.g != stale || now <= pending {
			t.Fatalf("batch %d: %d vertices pending after %d, view kept %v", 8+bi, now, pending, s.oriented.g == stale)
		}
		pending = now
	}
	prev = algo.RefTriangles(g)
	if got := count(false); got != prev {
		t.Fatalf("after four generic epochs: oriented tc %d, reference %d", got, prev)
	}
	exactPatch(len(stream))

	// One more batch, built to move what the vertex directory indexes by: it
	// adds vertices past the end of the old ID span, each closing a triangle
	// over an existing edge, and the block they form re-places others, so a
	// vertex that did not change is now owned by a different worker. The job
	// after it counts the new triangles only if it seeds the new vertices,
	// pulls them from their owner and stops pulling re-owned ones from the
	// old one: a directory kept from the previous epoch cannot.
	base, span := g.IDSpan()
	owners := make(map[graph.VertexID]int)
	var batch dyngraph.Batch
	next := base + graph.VertexID(span) + 1000
	g.ForEach(func(v *graph.Vertex) bool {
		owners[v.ID] = s.assign.Owner(v.ID)
		if len(batch.Ops) < 3*40 && len(v.Adj) > 0 && v.Adj[0] > v.ID {
			batch.Ops = append(batch.Ops,
				dyngraph.Mutation{Op: dyngraph.OpAddVertex, ID: next},
				dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: next, W: v.ID},
				dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: next, W: v.Adj[0]})
			next++
		}
		return true
	})
	epr, err := s.ApplyMutations(batch)
	if err != nil {
		t.Fatal(err)
	}
	reowned := 0
	for id, was := range owners {
		if s.assign.Owner(id) != was {
			reowned++
		}
	}
	if reowned == 0 || epr.MovedBlocks == 0 {
		t.Fatalf("the batch re-owned %d vertices (%d blocks moved): it does not test what it is for", reowned, epr.MovedBlocks)
	}
	if !s.tables.dir.dense() {
		t.Fatal("the widened ID span left the array arm: the span check is not exercised")
	}
	want := algo.RefTriangles(g)
	if want != prev+int64(len(batch.Ops)/3) {
		t.Fatalf("reference %d after adding %d triangles to %d", want, len(batch.Ops)/3, prev)
	}
	if got := count(false); got != want {
		t.Fatalf("after the re-owning batch: oriented tc %d, reference %d", got, want)
	}
	exactPatch(len(stream) + 1)
	if got := count(true); got != want {
		t.Fatalf("after the re-owning batch: generic tc %d, reference %d", got, want)
	}
}

// TestSeedRestrictedLaunch: a job launched with JobOptions.Seeds is the full
// job minus the tasks of every other seed. At 1, 2 and 4 workers, stealing
// on and off, its records equal the sequential per-seed reference over the
// same set (IDs the graph does not hold skipped); an empty set runs no task
// and still terminates; and a RemoteSession says it cannot take one.
func TestSeedRestrictedLaunch(t *testing.T) {
	g, _ := gen.Community(gen.CommunityConfig{Communities: 40, MinSize: 5, MaxSize: 10, PIn: 0.7, Bridges: 80, AttrDim: 3, AttrRange: 3, Seed: 9})
	var seeds []graph.VertexID
	for i, id := range g.IDs() {
		if i%3 == 0 {
			seeds = append(seeds, id)
		}
	}
	_, span := g.IDSpan()
	seeds = append(seeds, g.IDs()[0]+graph.VertexID(span)+50, -7) // off the graph
	miners := map[string]func() core.Algorithm{
		"cd": func() core.Algorithm { return algo.NewCommunityDetect(0.5, 3) },
		"qc": func() core.Algorithm { return algo.NewQuasiClique(0.7, 4) },
	}
	for _, workers := range []int{1, 2, 4} {
		for _, stealing := range []bool{false, true} {
			cfg := dynConfig(workers)
			cfg.Stealing = stealing
			s, err := NewSession(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, mk := range miners {
				want := algo.SeqRunSeeds(g, mk(), seeds)
				full := algo.SeqRun(g, mk())
				if len(want.Records) == 0 || len(want.Records) >= len(full.Records) {
					t.Fatalf("%s: the seed set mines %d of %d records: it does not restrict anything", name, len(want.Records), len(full.Records))
				}
				j, err := s.Launch(mk(), JobOptions{Seeds: seeds})
				if err != nil {
					t.Fatal(err)
				}
				res, err := j.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Records, want.Records) {
					t.Fatalf("%s workers=%d stealing=%v: %d records from the seed-restricted job, %d from the per-seed reference",
						name, workers, stealing, len(res.Records), len(want.Records))
				}
				if res.Total.TasksDone != want.Tasks {
					t.Fatalf("%s workers=%d stealing=%v: %d tasks done, the reference ran %d", name, workers, stealing, res.Total.TasksDone, want.Tasks)
				}

				j, err = s.Launch(mk(), JobOptions{Seeds: []graph.VertexID{}})
				if err != nil {
					t.Fatal(err)
				}
				if res, err = j.Wait(); err != nil || len(res.Records) != 0 || res.Total.TasksDone != 0 {
					t.Fatalf("%s workers=%d: empty seed set: %d records, %d tasks, err %v", name, workers, len(res.Records), res.Total.TasksDone, err)
				}
			}
			s.Close()
		}
	}

	rs, err := NewRemoteSession(g, Config{Workers: 2, Threads: 1}, RemoteSessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sp := jobspec.Spec{App: "cd"}.Normalize()
	if _, err := rs.Launch(algo.NewCommunityDetect(0.5, 3), JobOptions{Spec: &sp, Seeds: seeds}); err == nil || !strings.Contains(err.Error(), "Seeds") {
		t.Fatalf("RemoteSession.Launch with a seed set: err = %v, want a refusal naming JobOptions.Seeds", err)
	}
}

// TestResidentSetFollowsGraphEpoch: the resident set is cut with the view,
// per epoch. A batch that wires a cold vertex into a hub — in every list,
// keeping nothing — puts it in the next epoch's set, and the job on that
// epoch is exact. The set is a column of the epoch's own directory, never a
// shared one: a job that leased the old epoch runs to the end on the old
// view while the batch waits for it, and the old directory still answers as
// it did after the new one is cut.
func TestResidentSetFollowsGraphEpoch(t *testing.T) {
	g, _ := gen.Community(gen.CommunityConfig{Communities: 60, MinSize: 5, MaxSize: 10, PIn: 0.7, Bridges: 120, Seed: 31})
	cfg := dynConfig(3)
	hold := make(chan struct{})
	cfg.seedHold = hold
	s, err := NewSession(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sp := jobspec.Spec{App: "tc"}.Normalize()
	before := algo.RefTriangles(g)

	// The held job cuts epoch 0's view and stays on it.
	held, err := s.Launch(algo.NewTriangleCount(), JobOptions{Spec: &sp})
	if err != nil {
		t.Fatal(err)
	}
	old := s.oriented.vertexTables
	oldIDs := s.oriented.residentIDs()
	if len(oldIDs) == 0 {
		t.Fatal("epoch 0 has no resident set")
	}
	var cold graph.VertexID = -1
	g.ForEach(func(v *graph.Vertex) bool {
		if _, hot := slices.BinarySearch(oldIDs, v.ID); !hot && len(v.Adj) <= 6 {
			cold = v.ID
		}
		return cold < 0
	})
	if cold < 0 {
		t.Fatal("no cold vertex to promote")
	}
	var batch dyngraph.Batch
	g.ForEach(func(v *graph.Vertex) bool {
		if v.ID != cold && !v.HasNeighbor(cold) && len(batch.Ops) < 150 {
			batch.Ops = append(batch.Ops, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: cold, W: v.ID})
		}
		return true
	})
	applied := make(chan error, 1)
	go func() {
		_, err := s.ApplyMutations(batch)
		applied <- err
	}()
	close(hold) // the batch is waiting on the held job's lease, or about to
	res, err := held.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.AggGlobal != any(before) || res.ResidentLists != len(oldIDs) {
		t.Fatalf("the job on epoch 0: %v triangles with %d resident lists, want %d with %d", res.AggGlobal, res.ResidentLists, before, len(oldIDs))
	}
	if err := <-applied; err != nil {
		t.Fatal(err)
	}

	after := algo.RefTriangles(g)
	if after == before {
		t.Fatal("the batch closed no triangle: a stale view would go unnoticed")
	}
	j, err := s.Launch(algo.NewTriangleCount(), JobOptions{Spec: &sp})
	if err != nil {
		t.Fatal(err)
	}
	if res, err = j.Wait(); err != nil {
		t.Fatal(err)
	}
	newIDs := s.oriented.residentIDs()
	if res.AggGlobal != any(after) || res.ResidentLists != len(newIDs) {
		t.Fatalf("the job on epoch 1: %v triangles with %d resident lists, want %d with %d", res.AggGlobal, res.ResidentLists, after, len(newIDs))
	}
	if _, hot := slices.BinarySearch(newIDs, cold); !hot {
		t.Fatalf("vertex %d, now in %d lists, is not resident on epoch 1", cold, len(g.Vertex(cold).Adj))
	}
	want, _ := graph.HotLists(graph.Orient(g), graph.ResidentBudgetPerVertex*int64(g.NumVertices()))
	slices.Sort(want)
	if !slices.Equal(newIDs, want) {
		t.Fatalf("epoch 1 keeps %d lists resident, a fresh cut of the mutated graph %d", len(newIDs), len(want))
	}
	if s.oriented.dir == old.dir {
		t.Fatal("epoch 1 reuses epoch 0's directory")
	}
	other := (old.dir.owner(cold) + 1) % 3
	if old.dir.local(cold, other) != nil || old.dir.residentLists != len(oldIDs) {
		t.Fatalf("cutting epoch 1's set changed epoch 0's directory (%d resident lists, was %d)", old.dir.residentLists, len(oldIDs))
	}
}
