package cluster_test

import (
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
)

// TestGMContextSurvivesSpillStealRestore carries GM's task context across
// every codec path on purpose — spilled to a task-store block and read
// back, migrated to a thief, snapshotted and restored into a replacement
// worker — on both worker hosts, and holds the job to the sequential
// reference: a context that lost or gained a match anywhere along the way
// changes the count.
//
// Two jobs per host, because a kill while a migration is in flight loses
// the batch (ROADMAP item 1; every kill soak runs with stealing off):
// spill + steal on a skewed partition, then spill + kill + restore.
func TestGMContextSurvivesSpillStealRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/recover soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 77})
	gen.DealLabels(g, 4)
	// Four levels, three of them expanding: a task crosses the wire between
	// several rounds, each time with more levels matched, and it is long
	// enough to be stolen from (Figure 1's tasks end before a thief asks).
	p := algo.PathPattern(0, 1, 2, 3, 0)
	want, seq := algo.RefMatchCount(g, p), algo.SeqRun(g, algo.NewGraphMatch(p))
	if want == 0 || seq.AggGlobal != any(want) {
		t.Fatalf("degenerate graph or sequential run: %v counted, reference %d", seq.AggGlobal, want)
	}
	sp := jobspec.Spec{App: "gm", Pattern: "0,1,2,3,0;-1,0,1,2,3"}.Normalize() // worker processes build p from it

	type session interface {
		Launch(a core.Algorithm, opt cluster.JobOptions) (*cluster.Job, error)
		Close()
	}
	open := func(remote bool, cfg cluster.Config) session {
		if remote {
			rs, _ := remoteTestCluster(t, g, cfg,
				cluster.RemoteSessionConfig{ResultTimeout: 240 * time.Second},
				cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond, CheckpointDir: t.TempDir()})
			return rs
		}
		s, err := cluster.NewSession(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Eight tasks in memory, two to a block: nearly every inactive task of a
	// worker goes through a spill block.
	spilling := func() cluster.Config {
		cfg := smallConfig()
		cfg.Threads, cfg.CacheCapacity, cfg.StoreMemCapacity, cfg.StoreBlockCapacity = 1, 64, 8, 2
		return cfg
	}

	var stolen int64
	for _, remote := range []bool{false, true} {
		cfg := spilling()
		cfg.Partitioner = partition.Skewed{Bias: 0.8}
		cfg.Stealing = true
		cluster.Tune(&cfg, cluster.Knobs{StealBatch: 2, StealLocalityMax: 2}) // every task may migrate
		sess := open(remote, cfg)
		j, err := sess.Launch(algo.NewGraphMatch(p), cluster.JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.AggGlobal != any(want) || res.Total.TasksDone != seq.Tasks || res.Total.DiskWrite == 0 {
			t.Fatalf("remote=%v spill+steal: count %v over %d tasks, %d bytes spilled; want %d over %d tasks and a spill",
				remote, res.AggGlobal, res.Total.TasksDone, res.Total.DiskWrite, want, seq.Tasks)
		}
		stolen += res.Total.Stolen
		sess.Close()

		cfg = spilling()
		cfg.Partitioner = partition.Hash{}
		cfg.CheckpointDir = t.TempDir()
		// Held: the kill lands mid-job, with seeds still to come on every slot.
		release := holdJobs(&cfg)
		sess = open(remote, cfg)
		j, err = sess.Launch(algo.NewGraphMatch(p), cluster.JobOptions{ID: "gm-kill", Spec: &sp, CheckpointEvery: 3 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		awaitManifest(t, j, cfg.CheckpointDir, "gm-kill")
		j.KillWorker(1)
		if err := j.RecoverWorker(1); err != nil {
			t.Fatal(err)
		}
		release()
		res, err = j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		// No task count here: counters are not part of a snapshot, so rounds
		// re-run after the restore count twice in process and a killed worker
		// process takes its counters with it. The aggregate is restored.
		if res.AggGlobal != any(want) || res.Recovered == 0 || res.Total.DiskWrite == 0 {
			t.Fatalf("remote=%v spill+kill+restore: count %v after %d recoveries, %d bytes spilled; want %d, a recovery and a spill",
				remote, res.AggGlobal, res.Recovered, res.Total.DiskWrite, want)
		}
		sess.Close()
	}
	if stolen == 0 {
		t.Fatal("no task migrated on either host: the steal path never carried a context")
	}
}
