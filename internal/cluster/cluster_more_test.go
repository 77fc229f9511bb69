package cluster_test

import (
	"strings"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

func TestMaxCliqueWithTaskSplitting(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 73})
	want := algo.RefMaxClique(g)
	mc := algo.NewMaxClique()
	mc.SplitThreshold = 16
	res, err := cluster.Run(g, mc, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int); got != want {
		t.Fatalf("split mcf: got %d want %d", got, want)
	}
}

func TestMaxCliqueEmitsWitness(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 2000, Seed: 79})
	res, err := cluster.Run(g, algo.NewMaxClique(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := res.AggGlobal.(int)
	found := false
	for _, r := range res.Records {
		if strings.Contains(r, "size="+itoa(want)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no witness record for clique size %d in %v", want, res.Records)
	}
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var out []byte
	for x > 0 {
		out = append([]byte{byte('0' + x%10)}, out...)
		x /= 10
	}
	return string(out)
}

func TestGraphMatchDeepPattern(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 1500, Seed: 83})
	gen.AssignLabels(g, 4, 7)
	// Depth-3 path: exercises three pull rounds per task.
	p := algo.PathPattern(0, 1, 2, 3)
	want := algo.RefMatchCount(g, p)
	res, err := cluster.Run(g, algo.NewGraphMatch(p), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("deep gm: got %d want %d", got, want)
	}
}

func TestGraphMatchStarPattern(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 1500, Seed: 89})
	gen.AssignLabels(g, 3, 11)
	// Star: root with three children at the same level.
	p := algo.MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 0})
	want := algo.RefMatchCount(g, p)
	res, err := cluster.Run(g, algo.NewGraphMatch(p), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("star gm: got %d want %d", got, want)
	}
}

func TestSpillingUnderTinyStore(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 97})
	want := algo.RefTriangles(g)
	cfg := smallConfig()
	cfg.StoreMemCapacity = 16
	cfg.StoreBlockCapacity = 8
	cfg.SpillDir = t.TempDir()
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("spilled tc: got %d want %d", got, want)
	}
	if res.Total.DiskWrite == 0 {
		t.Fatal("expected spill traffic with a 16-task store")
	}
}

func TestTinyCacheStillCorrect(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 101})
	want := algo.RefMaxClique(g)
	cfg := smallConfig()
	cfg.CacheCapacity = 8 // brutal: forces overflow handling
	cfg.Partitioner = partition.Hash{}
	res, err := cluster.Run(g, algo.NewMaxClique(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int); got != want {
		t.Fatalf("tiny cache mcf: got %d want %d", got, want)
	}
}

func TestManyWorkers(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2500, Seed: 107})
	want := algo.RefTriangles(g)
	cfg := smallConfig()
	cfg.Workers = 12
	cfg.Threads = 1
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("12 workers: got %d want %d", got, want)
	}
	if len(res.PerWorker) != 12 {
		t.Fatalf("per-worker stats: %d", len(res.PerWorker))
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 109})
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	res, err := cluster.Run(g, algo.NewMaxClique(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.PartitionTime < 0 {
		t.Fatal("timings missing")
	}
	if res.Total.Busy <= 0 {
		t.Fatal("busy time missing")
	}
	if res.Total.TasksDone == 0 {
		t.Fatal("tasks missing")
	}
	if res.EdgeCut <= 0 {
		t.Fatal("edge cut missing under hash partitioning")
	}
}

func TestUnfrozenGraphRejected(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(1, 2) // not frozen
	if _, err := cluster.Run(g, algo.NewTriangleCount(), smallConfig()); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
}

func TestSmallWorldGraphEndToEnd(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 400, K: 8, Beta: 0.05, Seed: 137})
	want := algo.RefTriangles(g)
	if want == 0 {
		t.Fatal("ring lattice with K=8 must contain triangles")
	}
	cfg := smallConfig()
	cfg.Partitioner = partition.BDG{Seed: 3}
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("small world tc: got %d want %d", got, want)
	}
	// BDG on a ring should produce a very low edge cut.
	if res.EdgeCut > 0.4 {
		t.Fatalf("BDG edge cut %.2f unexpectedly high on a ring lattice", res.EdgeCut)
	}
}
