package cluster_test

import (
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

// smallConfig returns a fast test configuration.
func smallConfig() cluster.Config {
	cfg := cluster.Config{
		Workers:          3,
		Threads:          2,
		CacheCapacity:    512,
		StoreMemCapacity: 256,
		UseLSH:           true,
	}
	cluster.Tune(&cfg, cluster.Knobs{Heartbeat: time.Millisecond})
	return cfg
}

func TestTriangleCountMatchesReference(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 7})
	want := algo.RefTriangles(g)
	if want == 0 {
		t.Fatal("degenerate test graph: no triangles")
	}
	res, err := cluster.Run(g, algo.NewTriangleCount(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.AggGlobal.(int64)
	if !ok {
		t.Fatalf("AggGlobal type %T", res.AggGlobal)
	}
	if got != want {
		t.Fatalf("triangles: got %d want %d", got, want)
	}
}

func TestMaxCliqueMatchesReference(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 11})
	want := algo.RefMaxClique(g)
	res, err := cluster.Run(g, algo.NewMaxClique(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int); got != want {
		t.Fatalf("max clique: got %d want %d", got, want)
	}
}

func TestGraphMatchMatchesReference(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2500, Seed: 13})
	gen.AssignLabels(g, 7, 99)
	p := algo.FigurePattern()
	want := algo.RefMatchCount(g, p)
	if want == 0 {
		t.Fatal("degenerate test graph: no matches")
	}
	res, err := cluster.Run(g, algo.NewGraphMatch(p), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("matches: got %d want %d", got, want)
	}
}

func TestCommunityDetectionMatchesReference(t *testing.T) {
	g, _ := gen.Community(gen.CommunityConfig{
		Communities: 20, MinSize: 6, MaxSize: 12, PIn: 0.6, Bridges: 300, Seed: 17,
	})
	cd := algo.NewCommunityDetect(0.6, 4)
	want := algo.RefCommunities(g, cd)
	if len(want) == 0 {
		t.Fatal("degenerate test graph: no communities")
	}
	res, err := cluster.Run(g, cd, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)
}

func TestGraphClusteringMatchesReference(t *testing.T) {
	g, _ := gen.Community(gen.CommunityConfig{
		Communities: 15, MinSize: 6, MaxSize: 10, PIn: 0.7, Bridges: 150, Seed: 23,
	})
	exemplar := g.VertexAt(0).Attrs
	gc := algo.NewGraphCluster([][]int32{exemplar}, 0.8, 0.3, 3)
	want := algo.RefClusters(g, gc)
	if len(want) == 0 {
		t.Fatal("degenerate test graph: no clusters")
	}
	res, err := cluster.Run(g, gc, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)
}

func assertSameRecords(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count: got %d want %d\ngot:  %v\nwant: %v", len(got), len(want), head(got), head(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func head(xs []string) []string {
	if len(xs) > 5 {
		return xs[:5]
	}
	return xs
}

func TestRunWithAllOptionsEnabled(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 31})
	want := algo.RefTriangles(g)
	cfg := smallConfig()
	cfg.Stealing = true
	cfg.Partitioner = partition.BDG{}
	cfg.CheckpointEvery = 5 * time.Millisecond
	cfg.SampleEvery = 2 * time.Millisecond
	cfg.SpillDir = t.TempDir()
	cfg.CheckpointDir = t.TempDir()
	cfg.StoreMemCapacity = 64 // force spilling
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("triangles: got %d want %d", got, want)
	}
}

func TestRunOverTCP(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 1200, Seed: 37})
	want := algo.RefTriangles(g)
	cfg := smallConfig()
	cfg.UseTCP = true
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("triangles over TCP: got %d want %d", got, want)
	}
}

func TestRunSingleWorkerSingleThread(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 1500, Seed: 41})
	want := algo.RefTriangles(g)
	cfg := smallConfig()
	cfg.Workers = 1
	cfg.Threads = 1
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("triangles: got %d want %d", got, want)
	}
}

func TestNetworkBytesAreCounted(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 43})
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{} // hash partitioning guarantees remote pulls
	res, err := cluster.Run(g, algo.NewMaxClique(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.NetBytes == 0 {
		t.Fatal("expected nonzero network traffic with hash partitioning")
	}
	if res.Total.TasksDone == 0 {
		t.Fatal("expected completed tasks")
	}
}

func TestEagerVsStreamingSeeding(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 47})
	want := algo.RefTriangles(g)
	for _, eager := range []bool{false, true} {
		cfg := smallConfig()
		if eager {
			cluster.SeedEagerly(&cfg)
		}
		res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.AggGlobal.(int64); got != want {
			t.Fatalf("eager=%v: got %d want %d", eager, got, want)
		}
	}
}

// BenchmarkAblationEagerSeeding is the seeding ablation beside the root
// package's others (MCF on orkut-s, 3 workers × 2 threads): the executors
// take seed ranges with no bound on alive tasks, so every seed task that
// waits for data is generated before processing starts, as in the paper.
func BenchmarkAblationEagerSeeding(b *testing.B) {
	g := gen.MustBuild(gen.Orkut, 0.15)
	cfg := cluster.Config{Workers: 3, Threads: 2, UseLSH: true, Stealing: true}
	cluster.SeedEagerly(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(g, algo.NewMaxClique(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLatencySimulationStillCorrect(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 1200, Seed: 53})
	want := algo.RefTriangles(g)
	cfg := smallConfig()
	cfg.Latency = 200 * time.Microsecond
	cfg.Partitioner = partition.Hash{}
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("triangles with latency: got %d want %d", got, want)
	}
}

func TestTaskStealingProducesSameResults(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 59})
	want := algo.RefMaxClique(g)
	cfg := smallConfig()
	cfg.Stealing = true
	cfg.Partitioner = partition.Skewed{Bias: 0.7}
	res, err := cluster.Run(g, algo.NewMaxClique(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int); got != want {
		t.Fatalf("max clique with stealing: got %d want %d", got, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(0)
	g.Freeze()
	res, err := cluster.Run(g, algo.NewTriangleCount(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != 0 {
		t.Fatalf("empty graph: got %d triangles", got)
	}
}
