package cluster_test

import (
	"sync/atomic"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

// aggProbe checks that aggregator values flow worker → master → workers:
// every task reports its seed ID to a max aggregator and records the
// largest global value it observed. If broadcasting works, late tasks on
// every worker must observe values that originated on other workers.
type aggProbe struct {
	core.NoContext
	maxSeen atomic.Int64
	delay   time.Duration
}

func (*aggProbe) Name() string { return "aggprobe" }

func (*aggProbe) Aggregator() core.Aggregator { return core.MaxIntAggregator{} }

func (p *aggProbe) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	t := &core.Task{}
	t.Subgraph.AddVertex(v.ID)
	spawn(t)
}

func (p *aggProbe) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	time.Sleep(p.delay) // give the periodic sync time to act
	env.AggUpdate(int(t.Subgraph.Vertices()[0]))
	if g, ok := env.AggGlobal().(int); ok {
		for {
			cur := p.maxSeen.Load()
			if int64(g) <= cur || p.maxSeen.CompareAndSwap(cur, int64(g)) {
				break
			}
		}
	}
}

func TestAggregatorGlobalPropagates(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2000, Seed: 401})
	probe := &aggProbe{delay: 50 * time.Microsecond}
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	res, err := cluster.Run(g, probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxID := int64(0)
	g.ForEach(func(v *graph.Vertex) bool {
		if int64(v.ID) > maxID {
			maxID = int64(v.ID)
		}
		return true
	})
	if got := res.AggGlobal.(int); int64(got) != maxID {
		t.Fatalf("final global %d want %d", got, maxID)
	}
	// Some task must have observed a near-max global value during the
	// run (not only at the end), proving the broadcast path works.
	if probe.maxSeen.Load() < maxID/2 {
		t.Fatalf("tasks never observed broadcast globals: saw %d of max %d",
			probe.maxSeen.Load(), maxID)
	}
}

func TestKitchenSink(t *testing.T) {
	// Everything on at once: TCP transport, stealing, checkpoints, spill,
	// LSH, sampling — and the answer must still be exact.
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3000, Seed: 409})
	want := algo.RefMaxClique(g)
	cfg := smallConfig()
	cfg.UseTCP = true
	cfg.Stealing = true
	cfg.CheckpointEvery = 5 * time.Millisecond
	cfg.CheckpointDir = t.TempDir()
	cfg.SpillDir = t.TempDir()
	cfg.StoreMemCapacity = 32
	cfg.SampleEvery = 2 * time.Millisecond
	cfg.Partitioner = partition.Skewed{Bias: 0.6}
	res, err := cluster.Run(g, algo.NewMaxClique(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int); got != want {
		t.Fatalf("kitchen sink mcf: got %d want %d", got, want)
	}
	if res.Total.DiskWrite == 0 {
		t.Fatal("expected spilling with a 32-task store")
	}
}
