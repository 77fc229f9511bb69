package cluster

import (
	"slices"
	"sync"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
	"gminer/internal/transport"
)

// expandingMatches is every vertex a task of p can match to a non-root node
// with an expanding child: x matches node c if it carries c's label and
// neighbours a match of c's parent, the root matching every vertex with its
// label.
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
					out[x] = out[x] || slices.ContainsFunc(p.Children(c), func(k int) bool { return len(p.Children(k)) > 0 })
				}
			}
		}
	}
	return out
}

// TestGMNeverPullsLeaves: GM pulls a vertex only to match an expanding node
// below it, so every ID a worker asks a peer for is a match of a pattern
// node with an expanding child: never a leaf's, never a leaf-only node's
// (its leaves are counted off the label-degree column), never the deepest
// two levels'. The graph has matches of neither kind, so the check has
// teeth.
func TestGMNeverPullsLeaves(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 77})
	gen.DealLabels(g, 5)
	p := algo.MustPattern([]int32{0, 1, 2, 1, 3, 4}, []int{-1, 0, 0, 2, 2, 4}) // a(b, c(b, d(e)))
	want, expanding := algo.RefMatchCount(g, p), expandingMatches(g, p)
	leafOnly := 0
	for _, exp := range expanding {
		if !exp {
			leafOnly++
		}
	}
	s, err := NewSession(g, Config{
		Workers: 4, Threads: 1, Partitioner: partition.Hash{}, CacheCapacity: 64,
		Stealing: true, stealBatch: 4, stealLocalityMax: 2, // every task may migrate
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := algo.NewGraphMatch(p)
	tasks := algo.SeqRun(g, algo.NewGraphMatch(p)).Tasks
	var mu sync.Mutex
	asked := map[graph.VertexID]int{}
	s.wrapEps = func(eps []transport.Endpoint) {
		for i, ep := range eps {
			eps[i] = &pullSpy{Endpoint: ep, mu: &mu, asked: asked}
		}
	}
	j, err := s.Launch(a, JobOptions{})
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
		t.Fatalf("count %v, reference %d", res.AggGlobal, want)
	case res.Total.TasksDone != tasks:
		t.Fatalf("%d tasks, but GM runs %d sequentially", res.Total.TasksDone, tasks)
	case len(asked) == 0 || leafOnly == 0:
		t.Fatalf("%d vertices pulled, %d leaf-only matches: the test is vacuous", len(asked), leafOnly)
	case len(outside) > 0:
		t.Fatalf("the job pulled %d vertices (of %d) no node with an expanding child can match, e.g. %d", len(outside), len(asked), outside[0])
	}
}
