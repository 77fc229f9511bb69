package cluster

import (
	"testing"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
)

// gmLabelSpy is GM that keeps the label column its job was offered.
type gmLabelSpy struct {
	*algo.GraphMatch
	offered *graph.Labels
}

func (s *gmLabelSpy) Plan() core.Plan {
	p := s.GraphMatch.Plan()
	offer := p.Labels
	p.Labels = func(l *graph.Labels) { s.offered = l; offer(l) }
	return p
}

// runJobs launches every algorithm of as on s at once and waits for all.
func runJobs(t *testing.T, s *Session, as ...core.Algorithm) []*Result {
	t.Helper()
	jobs := make([]*Job, len(as))
	for i, a := range as {
		j, err := s.Launch(a, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	out := make([]*Result, len(jobs))
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// TestGMReadsOneColumnPerEpoch: the label-degree column is the epoch's. A
// dynamic session whose jobs are tc and cd alone never cuts one, epoch
// after epoch; two GM jobs running at once on one epoch are offered one
// label column and read the one label-degree column it cuts; and after a
// batch that moves an edge and relabels a vertex, GM counts what the
// reference counts on the new epoch — a column kept from the old epoch
// would count the old graph.
func TestGMReadsOneColumnPerEpoch(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 5000, Seed: 17})
	gen.DealLabels(g, 4)
	gen.AssignAttrs(g, 5, 10, 17)
	s, err := NewSession(g, dynConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	build := func(app string) core.Algorithm {
		a, err := jobspec.Build(g, jobspec.Spec{App: app}.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for i, b := range gen.Deltas(g, gen.DeltasConfig{Batches: 3, Ops: 24, Seed: 5}) {
		runJobs(t, s, build("tc"), build("cd"))
		if n := s.tables.dir.labels.DegreeBytes(); n != 0 {
			t.Fatalf("epoch %d: tc and cd alone cut a %d-byte label-degree column", i, n)
		}
		if _, err := s.ApplyMutations(b); err != nil {
			t.Fatal(err)
		}
	}

	p := algo.FigurePattern()
	spies := []*gmLabelSpy{{GraphMatch: algo.NewGraphMatch(p)}, {GraphMatch: algo.NewGraphMatch(p)}}
	want := algo.RefMatchCount(g, p)
	for i, res := range runJobs(t, s, spies[0], spies[1]) {
		if res.AggGlobal != any(want) || want == 0 {
			t.Fatalf("concurrent GM job %d: count %v, reference %d", i, res.AggGlobal, want)
		}
	}
	column := s.tables.dir.labels
	if spies[0].offered != column || spies[1].offered != column || column.DegreeBytes() == 0 {
		t.Fatalf("two GM jobs on one epoch were offered %p and %p, the epoch's column is %p (%d bytes cut)",
			spies[0].offered, spies[1].offered, column, column.DegreeBytes())
	}

	// Move an edge of a label-2 vertex (Figure 1's c) to another c, and
	// relabel one of its label-3 neighbours (a leaf d) to 1 (a leaf b).
	var c, d, other *graph.Vertex
	g.ForEach(func(v *graph.Vertex) bool {
		switch {
		case v.Label == 2 && c == nil && len(v.Adj) > 1:
			c = v
		case v.Label == 2 && other == nil && c != nil:
			other = v
		}
		return true
	})
	for _, u := range c.Adj {
		if x := g.Vertex(u); x.Label == 3 && d == nil {
			d = x
		}
	}
	if c == nil || d == nil || other == nil {
		t.Fatal("no c with a d neighbour to move and relabel")
	}
	moved, ext := c.Adj[0], g.External
	one := int32(1)
	ops := []dyngraph.Mutation{
		{Op: dyngraph.OpDelEdge, U: ext(c.ID), W: ext(moved)},
		{Op: dyngraph.OpAddEdge, U: ext(other.ID), W: ext(moved)},
		{Op: dyngraph.OpDelVertex, ID: ext(d.ID)},
		{Op: dyngraph.OpAddVertex, ID: ext(d.ID), Label: &one},
	}
	for _, u := range d.Adj {
		ops = append(ops, dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: ext(d.ID), W: ext(u)})
	}
	if _, err := s.ApplyMutations(dyngraph.Batch{Ops: ops}); err != nil {
		t.Fatal(err)
	}
	after := algo.RefMatchCount(g, p)
	if after == want {
		t.Fatalf("the batch left the reference count at %d: nothing to tell the epochs apart", after)
	}
	spy := &gmLabelSpy{GraphMatch: algo.NewGraphMatch(p)}
	if res := runJobs(t, s, spy)[0]; res.AggGlobal != any(after) || spy.offered == column {
		t.Fatalf("after the batch: count %v, reference %d (offered the old epoch's column: %v)", res.AggGlobal, after, spy.offered == column)
	}
}
