package cluster_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
	"gminer/internal/plan"
)

// gmPruneGraph is a skewed graph over four dealt labels, small enough to mine
// a few hundred times.
func gmPruneGraph() *graph.Graph {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 5000, Seed: 17})
	gen.DealLabels(g, 4)
	return g
}

// gmArm is GM for p, parent-major on the plan or the generic baseline that
// declares none.
func gmArm(p *algo.Pattern, generic bool) *algo.GraphMatch {
	a := algo.NewGraphMatch(p)
	a.Generic = generic
	return a
}

// gmRun launches a — GM, or a spy around it — on s and returns the job's
// result, once it has checked that the job ran the arm a declares: the tasks
// of that arm's sequential run.
func gmRun(t *testing.T, s *cluster.Session, a core.Algorithm) *cluster.Result {
	t.Helper()
	gm, ok := a.(*algo.GraphMatch)
	if spy, isSpy := a.(*gmSpy); isSpy {
		gm, ok = spy.GraphMatch, true
	}
	if !ok {
		t.Fatalf("gmRun: %T is not GM", a)
	}
	j, err := s.Launch(a, cluster.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if seq := gmSeq(s.Graph(), gm.P, gm.Generic); res.Total.TasksDone != seq.Tasks {
		t.Fatalf("generic=%v: %d tasks, but that arm runs %d sequentially: the other arm ran", gm.Generic, res.Total.TasksDone, seq.Tasks)
	}
	return res
}

// gmSeq is the sequential run a GM job of p must reproduce, count and tasks:
// parent-major, or the generic baseline.
func gmSeq(g *graph.Graph, p *algo.Pattern, generic bool) *algo.SeqResult {
	return algo.SeqRun(g, gmArm(p, generic))
}

// widen moves gmPruneGraph's labels 0, 1 and 3 off [0, 64) — to NoLabel, 64
// and 2^20 — and keeps the others.
func widen(label int32) int32 {
	switch label {
	case 0:
		return graph.NoLabel
	case 1:
		return 64
	case 3:
		return 1 << 20
	}
	return label
}

// TestGMLabelPruningDifferential: matching parent-major off the label column
// is invisible in a job's output. On every session shape — workers, stealing,
// spilling, dense IDs (array directory, flat label column), strided ones
// (hash tables, the column through the graph's index), and dense IDs with
// labels widened off [0, 64) (past the mask, step by step) — the
// parent-major job, the generic job and the reference agree on the count,
// and each job runs the tasks its arm's sequential run does: one per
// root-labelled vertex candidate-major, one per root whose level 1 matches
// parent-major. Widening labels and patterns alike changes neither.
func TestGMLabelPruningDifferential(t *testing.T) {
	dense, wide := gmPruneGraph(), gmPruneGraph()
	wide.ForEach(func(v *graph.Vertex) bool {
		v.Label = widen(v.Label)
		return true
	})
	graphs := map[string]*graph.Graph{"dense": dense, "strided": sparseIDs(dense), "wide": wide}
	patterns := map[string]*algo.Pattern{
		"figure": algo.FigurePattern(),
		"path":   algo.PathPattern(0, 1, 2, 3),
		"single": algo.MustPattern([]int32{1}, []int{-1}),
		// One label on two leaves of one level.
		"star-repeat": algo.MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 0}),
		// Both levels want every label the graph has: nothing to prune.
		"every-label": algo.MustPattern([]int32{0, 0, 1, 2, 3, 0, 1, 2, 3}, []int{-1, 0, 0, 0, 0, 1, 1, 1, 1}),
		// Level 2 wants a label no vertex carries: every known ID is pruned.
		"absent-label": algo.PathPattern(0, 1, 9),
		// Expanding nodes below level 1; a leaf and an expanding node with one
		// label under one parent.
		"path5":         algo.PathPattern(0, 1, 2, 3, 0),
		"leaf+internal": algo.MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 1}),
	}
	patternsOf := func(gname string) map[string]*algo.Pattern {
		if gname != "wide" {
			return patterns
		}
		widened := map[string]*algo.Pattern{}
		for pname, p := range patterns {
			labels := make([]int32, len(p.Labels))
			for i, l := range p.Labels {
				labels[i] = widen(l)
			}
			widened[pname] = algo.MustPattern(labels, p.Parent)
		}
		return widened
	}
	type ref struct {
		count int64
		tasks [2]int64 // parent-major, generic
	}
	refs := map[string]ref{}
	for gname, g := range graphs {
		for pname, p := range patternsOf(gname) {
			pm, generic := gmSeq(g, p, false), gmSeq(g, p, true)
			want := algo.RefMatchCount(g, p)
			if pm.AggGlobal != any(want) || generic.AggGlobal != any(want) || (want == 0) != (pname == "absent-label") || pm.Tasks == 0 {
				t.Fatalf("%s/%s: sequential runs count %v and %v in %d tasks, reference %d", gname, pname, pm.AggGlobal, generic.AggGlobal, pm.Tasks, want)
			}
			refs[gname+"/"+pname] = ref{want, [2]int64{pm.Tasks, generic.Tasks}}
		}
	}
	for pname := range patterns {
		if refs["wide/"+pname] != refs["dense/"+pname] {
			t.Fatalf("%s: widened labels count %+v, dense ones %+v", pname, refs["wide/"+pname], refs["dense/"+pname])
		}
	}
	var spilled, stolen int64
	for gname, g := range graphs {
		for _, workers := range []int{1, 2, 4} {
			for _, stealing := range []bool{false, true} {
				for _, spill := range []bool{false, true} {
					cfg := smallConfig()
					cfg.Workers, cfg.Threads, cfg.Stealing = workers, 1, stealing
					if stealing {
						cfg.Partitioner = partition.Skewed{Bias: 0.8}
						cluster.Tune(&cfg, cluster.Knobs{StealBatch: 2, StealLocalityMax: 2})
					}
					if spill {
						cfg.StoreMemCapacity, cfg.StoreBlockCapacity = 8, 2
					}
					s, err := cluster.NewSession(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if s.DenseDirectory() != (gname != "strided") {
						t.Fatalf("%s: vertex directory dense=%v", gname, s.DenseDirectory())
					}
					for pname, p := range patternsOf(gname) {
						shape := fmt.Sprintf("%s/w%d/steal=%v/spill=%v/%s", gname, workers, stealing, spill, pname)
						want := refs[gname+"/"+pname]
						for arm, generic := range []bool{false, true} {
							res := gmRun(t, s, gmArm(p, generic))
							if res.AggGlobal != any(want.count) || res.Total.TasksDone != want.tasks[arm] {
								t.Fatalf("%s generic=%v: count %v in %d tasks, want %d in %d", shape, generic, res.AggGlobal, res.Total.TasksDone, want.count, want.tasks[arm])
							}
							spilled, stolen = spilled+res.Total.DiskWrite, stolen+res.Total.Stolen
						}
					}
					s.Close()
				}
			}
		}
	}
	if spilled == 0 || stolen == 0 {
		t.Fatalf("%d bytes spilled and %d tasks stolen over the whole matrix: a path went unexercised", spilled, stolen)
	}
}

// gmSpy is GM with a window on what its tasks hold: every ID of every round's
// candidate list whose label that round's steps have no use for.
type gmSpy struct {
	*algo.GraphMatch
	g     *graph.Graph
	wants [][]int32

	mu       sync.Mutex
	held     int
	unusable []graph.VertexID
}

func newGMSpy(g *graph.Graph, p *algo.Pattern) *gmSpy {
	spy := &gmSpy{GraphMatch: algo.NewGraphMatch(p), g: g}
	for _, steps := range plan.TreeSchedule(p.Labels, p.Parent) {
		var labels []int32
		for _, st := range steps {
			labels = append(labels, st.Label)
		}
		spy.wants = append(spy.wants, labels)
	}
	return spy
}

func (s *gmSpy) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	s.mu.Lock()
	for _, id := range t.Cands {
		// An ID the graph has no vertex for is unknown to the directory too.
		if v := s.g.Vertex(id); v != nil && t.Round < len(s.wants) && !slices.Contains(s.wants[t.Round], v.Label) {
			s.unusable = append(s.unusable, id)
		}
	}
	s.held += len(t.Cands)
	s.mu.Unlock()
	s.GraphMatch.Update(t, cands, env)
}

// TestGMPullsOnlyUsableLabels: on the plan, every ID a task holds in any
// round carries the label of a node of that round's level (parent-major: its
// expanding matches); the generic job on the same session holds the whole
// frontier, most of it of no use.
func TestGMPullsOnlyUsableLabels(t *testing.T) {
	dense := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 77})
	gen.DealLabels(dense, 7)
	p := algo.FigurePattern()
	for gname, g := range map[string]*graph.Graph{"dense": dense, "strided": sparseIDs(dense)} {
		cfg := smallConfig()
		cfg.Workers, cfg.Stealing = 2, true
		s, err := cluster.NewSession(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pruned, generic := newGMSpy(g, p), newGMSpy(g, p)
		generic.Generic = true
		want := algo.RefMatchCount(g, p)
		if a, b := gmRun(t, s, pruned).AggGlobal, gmRun(t, s, generic).AggGlobal; a != any(want) || b != any(want) || want == 0 {
			t.Fatalf("%s: counts %v pruned, %v generic, reference %d", gname, a, b, want)
		}
		s.Close()
		if len(pruned.unusable) > 0 {
			t.Errorf("%s: pruned job held %d IDs (of %d) no step of their round wants, e.g. vertex %d", gname, len(pruned.unusable), pruned.held, pruned.unusable[0])
		}
		// 2 of 7 labels a level: about 5 of every 7 frontier IDs are dead weight.
		if len(generic.unusable)*2 < generic.held || pruned.held*2 > generic.held {
			t.Errorf("%s: generic job held %d IDs, %d unusable; pruned job held %d: the workload does not exercise the filter",
				gname, generic.held, len(generic.unusable), pruned.held)
		}
	}
}

// TestGMPruningCutsCacheTraffic: with two of seven labels wanted per level,
// a parent-major job asks the RCV cache for at most 40% of the vertices the
// generic job does (fixed two-worker shape, no stealing, so both jobs see
// the same partition and the same remote share).
func TestGMPruningCutsCacheTraffic(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 30_000, Seed: 42})
	gen.DealLabels(g, 7)
	cfg := smallConfig()
	cfg.Workers, cfg.Threads, cfg.Stealing = 2, 1, false
	s, err := cluster.NewSession(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	acquires := func(generic bool) int64 {
		res := gmRun(t, s, gmArm(nil, generic))
		return res.Total.CacheHits + res.Total.CacheMisses
	}
	pruned, unpruned := acquires(false), acquires(true)
	if unpruned == 0 || pruned*10 > unpruned*4 {
		t.Fatalf("cache hits+misses: %d pruned, %d unpruned (%.0f%%), want at most 40%%", pruned, unpruned, 100*float64(pruned)/float64(unpruned))
	}
}

// TestGMPruningFollowsGraphEpoch: the label offer is per job, per epoch. A
// vertex deleted and added back under a label no vertex carried before must
// be seen with its new label by the next job — a column kept from the
// earlier epoch would prune it, or keep what now is of no use, and the count
// would part from the generic job's and the reference.
func TestGMPruningFollowsGraphEpoch(t *testing.T) {
	g := gmPruneGraph() // labels 0..3
	p := algo.PathPattern(0, 1, 9)
	s, err := cluster.NewSession(g, cluster.Config{Workers: 2, Threads: 2, Dynamic: true, Partitioner: partition.Blocked{Shift: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check := func(when string, wantMatches bool) {
		t.Helper()
		want := algo.RefMatchCount(g, p)
		if (want > 0) != wantMatches {
			t.Fatalf("%s: reference count %d", when, want)
		}
		for _, generic := range []bool{false, true} {
			seq := gmSeq(g, p, generic)
			if res := gmRun(t, s, gmArm(p, generic)); res.AggGlobal != any(want) || res.Total.TasksDone != seq.Tasks {
				t.Fatalf("%s generic=%v: count %v in %d tasks, want %d in %d", when, generic, res.AggGlobal, res.Total.TasksDone, want, seq.Tasks)
			}
		}
	}
	check("epoch 0", false)

	// The busiest label-2 vertex next to a label-1 vertex comes back as the
	// graph's first label-9 vertex, with its edges; a brand-new label-9
	// vertex joins it on the same neighbours.
	var hub *graph.Vertex
	g.ForEach(func(v *graph.Vertex) bool {
		if v.Label == 2 && (hub == nil || len(v.Adj) > len(hub.Adj)) && slices.ContainsFunc(v.Adj, func(u graph.VertexID) bool { return g.Vertex(u).Label == 1 }) {
			hub = v
		}
		return true
	})
	id, adj, nine := hub.ID, slices.Clone(hub.Adj), int32(9)
	fresh := graph.VertexID(1 << 20)
	if _, err := s.ApplyMutations(dyngraph.Batch{Ops: []dyngraph.Mutation{{Op: dyngraph.OpDelVertex, ID: id}}}); err != nil {
		t.Fatal(err)
	}
	check("hub deleted", false)
	ops := []dyngraph.Mutation{{Op: dyngraph.OpAddVertex, ID: id, Label: &nine}, {Op: dyngraph.OpAddVertex, ID: fresh, Label: &nine}}
	for _, u := range adj {
		ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: id, W: u}, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: fresh, W: u})
	}
	if _, err := s.ApplyMutations(dyngraph.Batch{Ops: ops}); err != nil {
		t.Fatal(err)
	}
	check("label 9 arrived", true)
}
