package cluster_test

import (
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
)

// TestGMLabelDegreeColumnUnderConcurrencyAndFailure holds GM's leaf counts,
// read off the epoch's label-degree column, to the sequential run where the
// column is shared and where a worker dies: four executor threads per
// worker asking for rows while the first ask cuts it and tasks are stolen
// (both hosts), and a goroutine-host worker killed mid-job, every worker
// replaced by the rollback reading the same column. The pattern has
// leaf-only parents on the deepest level and above it, and its tasks pull
// twice, so a thief finds them queued. Count and tasks are
// SeqRun's either way.
func TestGMLabelDegreeColumnUnderConcurrencyAndFailure(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 91})
	gen.DealLabels(g, 5)
	p := algo.MustPattern([]int32{0, 1, 3, 2, 4, 1, 3}, []int{-1, 0, 0, 1, 2, 4, 5}) // a(b(c), d(e(b(d))))
	sp := jobspec.Spec{App: "gm", Pattern: "0,1,3,2,4,1,3;-1,0,0,1,2,4,5"}.Normalize()
	want, seq := algo.RefMatchCount(g, p), algo.SeqRun(g, algo.NewGraphMatch(p))
	if want == 0 || seq.AggGlobal != any(want) {
		t.Fatalf("degenerate graph or sequential run: %v counted, reference %d", seq.AggGlobal, want)
	}

	var stolen int64
	for _, h := range []host{goroutines, processes} {
		cfg := smallConfig()
		cfg.Threads, cfg.Stealing, cfg.Partitioner = 4, true, partition.Skewed{Bias: 0.8}
		// A few remote candidates shut the pull window, so tasks queue in
		// the store where a thief finds them.
		cfg.CacheCapacity, cfg.StoreMemCapacity = 8, 64
		cluster.Tune(&cfg, cluster.Knobs{Heartbeat: 200 * time.Microsecond, StealBatch: 2, StealLocalityMax: 2})
		sess := openSession(t, g, cfg, h)
		j, err := sess.Launch(algo.NewGraphMatch(p), cluster.JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.AggGlobal != any(want) || res.Total.TasksDone != seq.Tasks {
			t.Fatalf("%s: 4 threads, stealing: count %v over %d tasks; want %d over %d",
				h.name, res.AggGlobal, res.Total.TasksDone, want, seq.Tasks)
		}
		stolen += res.Total.Stolen
		sess.Close()
	}
	if stolen == 0 {
		t.Error("no task migrated on either host: the column never met a stolen task")
	}

	// Stealing on: the kill lands while tasks run, and rolls every worker
	// back to one committed cut.
	cfg := smallConfig()
	cfg.Threads, cfg.Stealing, cfg.Partitioner = 4, true, partition.Hash{}
	cfg.CheckpointDir = t.TempDir()
	release := holdJobs(&cfg)
	sess := openSession(t, g, cfg, goroutines)
	j, err := sess.Launch(algo.NewGraphMatch(p), cluster.JobOptions{ID: "gm-column-kill", Spec: &sp, CheckpointEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	awaitManifest(t, j, cfg.CheckpointDir, "gm-column-kill")
	j.KillWorker(1)
	if err := j.RecoverWorker(1); err != nil {
		t.Fatal(err)
	}
	release()
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.AggGlobal != any(want) || res.Total.TasksDone != seq.Tasks || res.Recovered == 0 {
		t.Fatalf("kill+recover: count %v over %d tasks after %d recoveries; want %d over %d and a recovery",
			res.AggGlobal, res.Total.TasksDone, res.Recovered, want, seq.Tasks)
	}
}
