package cluster_test

import (
	"testing"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
)

func TestGraphletCensusMatchesReference(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3500, Seed: 113})
	want := algo.RefCensus(g)
	res, err := cluster.Run(g, algo.NewGraphletCensus(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := algo.Finalize(res.AggGlobal.(algo.Census))
	if got != want {
		t.Fatalf("census: got %+v want %+v", got, want)
	}
}

func TestQuasiCliqueMatchesReference(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 4000, Seed: 127})
	qc := algo.NewQuasiClique(0.7, 4)
	want := algo.RefQuasiCliques(g, qc)
	if len(want) == 0 {
		t.Fatal("degenerate test graph: no quasi-cliques")
	}
	res, err := cluster.Run(g, qc, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)
}

func TestFreqSubgraphMatchesReference(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 139})
	gen.AssignLabels(g, 4, 17)
	want := algo.RefFreqSubgraph(g)
	fsm := algo.NewFreqSubgraph(50)
	res, err := cluster.Run(g, fsm, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.AggGlobal.(algo.PatternCounts)
	if !ok {
		t.Fatalf("AggGlobal type %T", res.AggGlobal)
	}
	if len(got) != len(want) {
		t.Fatalf("pattern count: %d vs %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("pattern %v: got %d want %d", k, got[k], c)
		}
	}
	if len(fsm.Frequent(got)) == 0 {
		t.Fatal("no frequent patterns at support 50 on a 3k-edge graph")
	}
}
