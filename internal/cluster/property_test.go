package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

// Property: for arbitrary random graphs and worker/thread/partitioner
// configurations, the distributed triangle count equals the sequential
// reference. This is the whole-system invariant everything else hangs on.
func TestQuickClusterTriangles(t *testing.T) {
	f := func(seed int64, workers8, threads4, partPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(64)
		n := 24 + rng.Intn(64)
		for i := 0; i < n; i++ {
			g.AddVertex(graph.VertexID(i))
		}
		m := 2 * n
		for e := 0; e < m; e++ {
			g.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g.Freeze()

		cfg := cluster.Config{
			Workers:          int(workers8%4) + 1,
			Threads:          int(threads4%3) + 1,
			CacheCapacity:    32,
			StoreMemCapacity: 16,
			UseLSH:           seed%2 == 0,
			Stealing:         seed%3 == 0,
		}
		cluster.Tune(&cfg, cluster.Knobs{Heartbeat: time.Millisecond})
		switch partPick % 3 {
		case 0:
			cfg.Partitioner = partition.Hash{}
		case 1:
			cfg.Partitioner = partition.BDG{Seed: seed}
		default:
			cfg.Partitioner = partition.Skewed{Bias: 0.6}
		}
		res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
		if err != nil {
			return false
		}
		got, _ := res.AggGlobal.(int64)
		return got == algo.RefTriangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: killing and recovering a worker at an arbitrary point never
// loses or duplicates output records.
func TestQuickRecoveryExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized recovery is slow")
	}
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1500, Seed: int64(500 + trial)})
			want := expectedMarks(g)
			cfg := smallConfig()
			cfg.CheckpointEvery = 2 * time.Millisecond
			cfg.CheckpointDir = t.TempDir()
			cfg.Partitioner = partition.Hash{}
			cfg.Stealing = true

			job, err := cluster.Start(g, &slowMark{delay: 80 * time.Microsecond}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			victim := trial % 3
			time.Sleep(time.Duration(1+trial*3) * time.Millisecond)
			job.KillWorker(victim)
			time.Sleep(time.Millisecond)
			if err := job.RecoverWorker(victim); err != nil {
				t.Fatal(err)
			}
			res, err := job.Wait()
			if err != nil {
				t.Fatal(err)
			}
			assertSameRecords(t, res.Records, want)
		})
	}
}
