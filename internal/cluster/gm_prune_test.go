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

// gmRun launches a — GM, or a spy around it — on s and returns the job's
// result, once it has checked that the job ran the tasks of GM's sequential
// run.
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
	if seq := gmSeq(s.Graph(), gm.P); res.Total.TasksDone != seq.Tasks {
		t.Fatalf("%d tasks, but GM runs %d sequentially", res.Total.TasksDone, seq.Tasks)
	}
	return res
}

// gmSeq is the sequential run a GM job of p must reproduce, count and tasks.
func gmSeq(g *graph.Graph, p *algo.Pattern) *algo.SeqResult {
	return algo.SeqRun(g, algo.NewGraphMatch(p))
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
// spilling, the graph as generated, a copy with its external IDs strided
// apart, and one with labels widened off [0, 64) (past the mask, step by
// step) — the job, the sequential run and the reference agree on the count,
// and the job runs the tasks the sequential run does: one per root whose
// level 1 matches. Striding the IDs changes neither, and nor does widening
// labels and patterns alike.
func TestGMLabelPruningDifferential(t *testing.T) {
	dense, wide := gmPruneGraph(), gmPruneGraph()
	wide.ForEach(func(v *graph.Vertex) bool {
		v.Label = widen(v.Label)
		return true
	})
	graphs := map[string]*graph.Graph{"dense": dense, "strided": stridedIDs(dense), "wide": wide}
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
	type ref struct{ count, tasks int64 }
	refs := map[string]ref{}
	for gname, g := range graphs {
		for pname, p := range patternsOf(gname) {
			seq := gmSeq(g, p)
			want := algo.RefMatchCount(g, p)
			if seq.AggGlobal != any(want) || (want == 0) != (pname == "absent-label") || seq.Tasks == 0 {
				t.Fatalf("%s/%s: the sequential run counts %v in %d tasks, reference %d", gname, pname, seq.AggGlobal, seq.Tasks, want)
			}
			refs[gname+"/"+pname] = ref{want, seq.Tasks}
		}
	}
	for pname := range patterns {
		for _, other := range []string{"wide", "strided"} {
			if refs[other+"/"+pname] != refs["dense/"+pname] {
				t.Fatalf("%s: the %s graph counts %+v, the graph as generated %+v", pname, other, refs[other+"/"+pname], refs["dense/"+pname])
			}
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
					for pname, p := range patternsOf(gname) {
						shape := fmt.Sprintf("%s/w%d/steal=%v/spill=%v/%s", gname, workers, stealing, spill, pname)
						want := refs[gname+"/"+pname]
						res := gmRun(t, s, algo.NewGraphMatch(p))
						if res.AggGlobal != any(want.count) || res.Total.TasksDone != want.tasks {
							t.Fatalf("%s: count %v in %d tasks, want %d in %d", shape, res.AggGlobal, res.Total.TasksDone, want.count, want.tasks)
						}
						spilled, stolen = spilled+res.Total.DiskWrite, stolen+res.Total.Stolen
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

// TestGMPullsOnlyUsableLabels: every ID a task holds in any round carries
// the label of a node of that round's level (its expanding matches), though
// most of the roots' neighbours — what a task matching candidate-major would
// hold — carry none.
func TestGMPullsOnlyUsableLabels(t *testing.T) {
	dense := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 77})
	gen.DealLabels(dense, 7)
	// a(b, c(b, d(e))): its tasks pull the c matches for one round. Figure
	// 1's pull nothing, its c node being leaf-only.
	p := algo.MustPattern([]int32{0, 1, 2, 1, 3, 4}, []int{-1, 0, 0, 2, 2, 4})
	for gname, g := range map[string]*graph.Graph{"dense": dense, "strided": stridedIDs(dense)} {
		cfg := smallConfig()
		cfg.Workers, cfg.Stealing = 2, true
		s, err := cluster.NewSession(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pruned := newGMSpy(g, p)
		if got, want := gmRun(t, s, pruned).AggGlobal, algo.RefMatchCount(g, p); got != any(want) || want == 0 {
			t.Fatalf("%s: count %v, reference %d", gname, got, want)
		}
		s.Close()
		if len(pruned.unusable) > 0 {
			t.Errorf("%s: job held %d IDs (of %d) no step of their round wants, e.g. vertex %d", gname, len(pruned.unusable), pruned.held, pruned.unusable[0])
		}
		// 2 of 7 labels a level: about 5 of every 7 neighbours are dead weight.
		var offered, unwanted int
		g.ForEach(func(v *graph.Vertex) bool {
			if v.Label == p.Labels[0] {
				for _, u := range v.Adj {
					offered++
					if !slices.Contains(pruned.wants[1], g.Vertex(u).Label) {
						unwanted++
					}
				}
			}
			return true
		})
		if unwanted*2 < offered || pruned.held*2 > offered {
			t.Errorf("%s: roots have %d neighbours, %d unusable; the job held %d: the workload does not exercise the filter",
				gname, offered, unwanted, pruned.held)
		}
	}
}

// TestGMPruningFollowsGraphEpoch: the label offer is per job, per epoch. A
// vertex deleted and added back under a label no vertex carried before must
// be seen with its new label by the next job — a column kept from the
// earlier epoch would prune it, or keep what now is of no use, and the count
// would part from the reference.
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
		if res := gmRun(t, s, algo.NewGraphMatch(p)); res.AggGlobal != any(want) {
			t.Fatalf("%s: count %v, want %d", when, res.AggGlobal, want)
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
