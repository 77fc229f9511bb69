package cluster

import (
	"sync"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
	"gminer/internal/transport"
)

// expandingMatches is every vertex a task of p can match to an expanding
// non-root node: x matches node c if it carries c's label and neighbours a
// match of c's parent, the root matching every vertex with its label.
func expandingMatches(g *graph.Graph, p *algo.Pattern) map[graph.VertexID]bool {
	matches := make([]map[graph.VertexID]bool, len(p.Labels))
	for c := range matches {
		matches[c] = map[graph.VertexID]bool{}
	}
	g.ForEach(func(v *graph.Vertex) bool {
		matches[0][v.ID] = v.Label == p.Labels[0]
		return true
	})
	out := map[graph.VertexID]bool{}
	for c := 1; c < len(p.Labels); c++ { // BFS order: a parent's matches are final
		for m, ok := range matches[p.Parent[c]] {
			for _, x := range g.Vertex(m).Adj {
				if ok && g.Vertex(x).Label == p.Labels[c] {
					matches[c][x] = true
					out[x] = out[x] || len(p.Children(c)) > 0
				}
			}
		}
	}
	return out
}

// TestGMNeverPullsLeaves: parent-major GM pulls a vertex only to match the
// level below it, so every ID a worker asks a peer for — or ships in a steal
// payload's to_pull — is a match of some expanding pattern node: never a
// leaf's, never the deepest level's. The generic job on the same session
// asks for leaves, so the check has teeth.
func TestGMNeverPullsLeaves(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 77})
	gen.DealLabels(g, 5)
	p := algo.MustPattern([]int32{0, 1, 2, 1, 3, 4}, []int{-1, 0, 0, 2, 2, 4}) // a(b, c(b, d(e)))
	want, expanding := algo.RefMatchCount(g, p), expandingMatches(g, p)
	s, err := NewSession(g, Config{
		Workers: 4, Threads: 1, Partitioner: partition.Hash{}, CacheCapacity: 64,
		Stealing: true, stealBatch: 4, stealLocalityMax: 2, // every task may migrate
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, generic := range []bool{false, true} {
		a := algo.NewGraphMatch(p)
		a.Generic = generic
		seqArm := algo.NewGraphMatch(p)
		seqArm.Generic = generic
		tasks := algo.SeqRun(g, seqArm).Tasks
		var mu sync.Mutex
		asked := map[graph.VertexID]int{}
		j, err := s.launch(a, JobOptions{}, launchSpec{
			newHost: func(j *Job, plan core.Plan, eps []transport.Endpoint) (workerHost, error) {
				for i, ep := range eps {
					eps[i] = &pullSpy{Endpoint: ep, codec: a, mu: &mu, asked: asked}
				}
				return &goroutineHost{j: j, algo: a, tables: s.oriented.tables(plan, s.g, s.assign, j.cfg.GraphEpoch, s.tables), eps: eps, workers: make([]*Worker, len(eps))}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		var outside []graph.VertexID
		for id := range asked {
			if !expanding[id] {
				outside = append(outside, id)
			}
		}
		switch {
		case res.AggGlobal != any(want) || want == 0:
			t.Fatalf("generic=%v: count %v, reference %d", generic, res.AggGlobal, want)
		case res.Total.TasksDone != tasks:
			t.Fatalf("generic=%v: %d tasks, but that arm runs %d sequentially: the other arm ran", generic, res.Total.TasksDone, tasks)
		case len(asked) == 0:
			t.Fatalf("generic=%v: nothing was pulled: the test is vacuous", generic)
		case !generic && len(outside) > 0:
			t.Fatalf("parent-major job pulled %d vertices (of %d) no expanding node can match, e.g. %d", len(outside), len(asked), outside[0])
		case generic && len(outside) == 0:
			t.Fatalf("the generic job pulled only expanding matches (%d vertices): the check has no teeth", len(asked))
		}
	}
}
