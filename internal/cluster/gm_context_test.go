package cluster_test

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
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
// Two jobs per host: spill + steal on a skewed partition, then spill + kill
// + restore.
func TestGMContextSurvivesSpillStealRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/recover soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 12000, Seed: 77})
	gen.DealLabels(g, 4)
	// Five levels, three of them pulled (the leaf-only fourth is counted off
	// the label-degree column): a task crosses the wire between several
	// rounds, each time with more levels matched, and it is long enough to
	// be stolen from (Figure 1's tasks end before a thief asks).
	p := algo.PathPattern(0, 1, 2, 3, 0, 1)
	want, seq := algo.RefMatchCount(g, p), algo.SeqRun(g, algo.NewGraphMatch(p))
	if want == 0 || seq.AggGlobal != any(want) {
		t.Fatalf("degenerate graph or sequential run: %v counted, reference %d", seq.AggGlobal, want)
	}
	sp := jobspec.Spec{App: "gm", Pattern: "0,1,2,3,0,1;-1,0,1,2,3,4"}.Normalize() // worker processes build p from it

	// Eight tasks in memory, two to a block: nearly every inactive task of a
	// worker goes through a spill block.
	spilling := func() cluster.Config {
		cfg := smallConfig()
		cfg.Threads, cfg.CacheCapacity, cfg.StoreMemCapacity, cfg.StoreBlockCapacity = 1, 64, 8, 2
		return cfg
	}

	var stolen int64
	for _, h := range []host{goroutines, processes} { // a kill takes one path over either goroutine transport
		cfg := spilling()
		cfg.Partitioner = partition.Skewed{Bias: 0.8}
		cfg.Stealing = true
		cluster.Tune(&cfg, cluster.Knobs{StealBatch: 2, StealLocalityMax: 2}) // every task may migrate
		// On the goroutine host a migration is certain: the worker the skew
		// loads seeds all its ranges but the last up front, and withholds
		// that one until a task has migrated, so it keeps a store to steal
		// from, and the job cannot end, until the others go idle and steal.
		var job atomic.Pointer[cluster.Job]
		if !h.processes {
			cluster.SeedEagerly(&cfg)
			heavy := heaviest(t, g, cfg)
			cluster.HoldSeeds(&cfg, func(w int, last bool) bool {
				return w == heavy && last && migrations(job.Load()) == 0
			})
		}
		sess := openSession(t, g, cfg, h)
		j, err := sess.Launch(algo.NewGraphMatch(p), cluster.JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
		job.Store(j)
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.AggGlobal != any(want) || res.Total.TasksDone != seq.Tasks || res.Total.DiskWrite == 0 {
			t.Fatalf("%s: spill+steal: count %v over %d tasks, %d bytes spilled; want %d over %d tasks and a spill",
				h.name, res.AggGlobal, res.Total.TasksDone, res.Total.DiskWrite, want, seq.Tasks)
		}
		stolen += res.Total.Stolen
		sess.Close()

		cfg = spilling()
		cfg.Partitioner = partition.Hash{}
		cfg.CheckpointDir = t.TempDir()
		// Held: the kill lands mid-job, with seeds still to come on every slot.
		release := holdJobs(&cfg)
		sess = openSession(t, g, cfg, h)
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
		// Tasks done restore with the snapshot, so the count is a fault-free
		// run's. A worker process's counters are its last attempt's, so the
		// spill must come after the restore: the kill lands at the first
		// commit, while most tasks are still alive (a request that reached a
		// worker process before the job's channel opened is asked again the
		// next round, not after the 250 ms abandon), and the restored stores
		// overflow memory again.
		if res.AggGlobal != any(want) || res.Total.TasksDone != seq.Tasks || res.Recovered == 0 || res.Total.DiskWrite == 0 {
			t.Fatalf("%s: spill+kill+restore: count %v over %d tasks after %d recoveries, %d bytes spilled; want %d over %d tasks, a recovery and a spill",
				h.name, res.AggGlobal, res.Total.TasksDone, res.Recovered, res.Total.DiskWrite, want, seq.Tasks)
		}
		sess.Close()
	}
	if stolen == 0 {
		t.Fatal("no task migrated on either host: the steal path never carried a context")
	}
}

// heaviest is the worker cfg's partitioner gives the most vertices of g.
func heaviest(t *testing.T, g *graph.Graph, cfg cluster.Config) int {
	t.Helper()
	a, err := cfg.Partitioner.Partition(g, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	sizes := a.Sizes()
	return slices.Index(sizes, slices.Max(sizes))
}

// migrations is the tasks job's workers have shipped to thieves so far (0
// before the job is launched).
func migrations(j *cluster.Job) (n int64) {
	if j != nil {
		for _, s := range j.WorkerSnapshots() {
			n += s.Stolen
		}
	}
	return n
}
