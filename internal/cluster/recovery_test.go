package cluster_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

// slowMark is a test algorithm: every vertex seeds a task that pulls one
// remote-ish candidate (its first neighbor), sleeps briefly, and emits a
// record derived from the seed. Exactly-once output across failures is
// the invariant under test.
type slowMark struct {
	core.NoContext
	delay time.Duration
}

func (*slowMark) Name() string { return "slowmark" }

func (s *slowMark) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	t := &core.Task{}
	t.Subgraph.AddVertex(v.ID)
	if len(v.Adj) > 0 {
		t.Cands = v.Adj[:1]
	}
	spawn(t)
}

func (s *slowMark) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	time.Sleep(s.delay)
	env.Emit(fmt.Sprintf("v %d", t.Subgraph.Vertices()[0]))
}

func expectedMarks(g *graph.Graph) []string {
	var out []string
	g.ForEach(func(v *graph.Vertex) bool {
		out = append(out, fmt.Sprintf("v %d", v.ID))
		return true
	})
	sort.Strings(out)
	return out
}

func TestRecoveryFromCheckpointExactlyOnce(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 61})
	want := expectedMarks(g)

	cfg := smallConfig()
	cfg.Workers = 3
	cfg.Threads = 2
	cfg.CheckpointEvery = 3 * time.Millisecond
	cfg.CheckpointDir = t.TempDir()
	cfg.Partitioner = partition.Hash{}
	// Stealing off: a migration in flight at kill time would be lost, a
	// hole the paper's checkpoint protocol shares (tasks migrated after
	// the victim's checkpoint are not covered by anyone's snapshot).
	cfg.Stealing = false

	job, err := cluster.Start(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Let some checkpoints land, then crash worker 1 and recover it.
	time.Sleep(15 * time.Millisecond)
	job.KillWorker(1)
	time.Sleep(2 * time.Millisecond)
	if err := job.RecoverWorker(1); err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)
}

func TestAutoRecoveryViaFailureDetector(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 67})
	want := expectedMarks(g)

	cfg := smallConfig()
	cfg.Workers = 3
	cfg.CheckpointEvery = 3 * time.Millisecond
	cfg.CheckpointDir = t.TempDir()
	cfg.FailTimeout = 10 * time.Millisecond
	cfg.Partitioner = partition.Hash{}

	job, err := cluster.Start(g, &slowMark{delay: 150 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(12 * time.Millisecond)
	job.KillWorker(2)
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered == 0 {
		t.Fatal("expected at least one auto-recovery")
	}
	assertSameRecords(t, res.Records, want)
}

func TestRecoveryWithoutCheckpointRestartsFromScratch(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1200, Seed: 71})
	want := expectedMarks(g)

	cfg := smallConfig()
	cfg.Workers = 2
	cfg.CheckpointEvery = 0 // no checkpoints at all
	cfg.Partitioner = partition.Hash{}

	job, err := cluster.Start(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	job.KillWorker(0)
	time.Sleep(time.Millisecond)
	if err := job.RecoverWorker(0); err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)
}

// waitForManifest polls until the checkpoint directory holds a committed
// MANIFEST (the master writes it only after every worker acked an epoch).
func waitForManifest(t *testing.T, dir string, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err == nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no committed checkpoint within %v", deadline)
}

// TestResumeFullJobByteIdentical is the crash-restart soak: abandon a job
// mid-run (the process-death stand-in), then relaunch with -resume from the
// same checkpoint directory and require output byte-identical to a
// fault-free run.
func TestResumeFullJobByteIdentical(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 79})
	want := expectedMarks(g)

	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CheckpointEvery = 3 * time.Millisecond
	cfg.CheckpointDir = dir
	cfg.Partitioner = partition.Hash{}
	// Stealing off: see TestRecoveryFromCheckpointExactlyOnce.
	cfg.Stealing = false

	job, err := cluster.Start(g, &slowMark{delay: 150 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitForManifest(t, dir, 30*time.Second)
	job.Stop() // crash: the run's in-memory output is abandoned
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	res, err := cluster.Run(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)
}

func TestResumeRefusesMismatchedFingerprint(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1200, Seed: 73})
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CheckpointEvery = 2 * time.Millisecond
	cfg.CheckpointDir = dir
	cfg.Partitioner = partition.Hash{}

	job, err := cluster.Start(g, &slowMark{delay: 150 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitForManifest(t, dir, 30*time.Second)
	job.Stop()
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	cfg.Workers = cfg.Workers + 1 // changes the partition map → new fingerprint
	if _, err := cluster.Start(g, &slowMark{}, cfg); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched fingerprint accepted: %v", err)
	}
}

// TestResumeRefusesTheOtherArm: a checkpoint holds one arm of a job — a
// planned TC's tasks carry forward lists of G⁺, a generic one's undirected
// candidates — so the plan folds into the job fingerprint, and resuming on
// the other arm is refused with the fingerprint error, both ways round.
func TestResumeRefusesTheOtherArm(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 10, Edges: 8000, Seed: 42})
	tc := func(generic bool) *algo.TriangleCount {
		a := algo.NewTriangleCount()
		a.Generic = generic
		return a
	}
	for _, generic := range []bool{false, true} {
		cfg := smallConfig()
		cfg.Workers, cfg.Partitioner, cfg.Stealing = 2, partition.Hash{}, false
		cfg.CheckpointEvery, cfg.CheckpointDir = time.Millisecond, t.TempDir()
		resume := cfg
		resume.Resume, resume.CheckpointEvery = true, 0
		release := holdJobs(&cfg) // the job cannot finish before an epoch commits
		job, err := cluster.Start(g, tc(generic), cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitForManifest(t, cfg.CheckpointDir, 30*time.Second)
		job.Stop()
		release()
		if _, err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		other, err := cluster.Start(g, tc(!generic), resume)
		if err == nil {
			res, _ := other.Wait()
			t.Fatalf("generic=%v checkpoint resumed generic=%v: accepted, counted %v of %d", generic, !generic, res.AggGlobal, algo.RefTriangles(g))
		}
		if !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("generic=%v checkpoint resumed generic=%v: %v, want the fingerprint error", generic, !generic, err)
		}
	}
}

func TestResumeWithoutCheckpointErrors(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 400, Seed: 5})
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}

	cfg.Resume = true
	if _, err := cluster.Start(g, &slowMark{}, cfg); err == nil {
		t.Fatal("resume without a checkpoint directory accepted")
	}
	cfg.CheckpointDir = t.TempDir() // empty: no committed epoch to resume
	if _, err := cluster.Start(g, &slowMark{}, cfg); err == nil ||
		!strings.Contains(err.Error(), "no committed checkpoint") {
		t.Fatalf("resume from an empty directory accepted: %v", err)
	}
}

// TestRecoverBeforeFirstCommittedEpoch kills and recovers a worker before
// any epoch could commit: the replacement restarts from scratch and the
// snapshot-held Results of other workers must not duplicate.
func TestRecoverBeforeFirstCommittedEpoch(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1200, Seed: 89})
	want := expectedMarks(g)

	cfg := smallConfig()
	cfg.Workers = 2
	cfg.CheckpointEvery = time.Hour // enabled, but no epoch ever completes
	cfg.CheckpointDir = t.TempDir()
	cfg.Partitioner = partition.Hash{}

	job, err := cluster.Start(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	job.KillWorker(0)
	time.Sleep(time.Millisecond)
	if err := job.RecoverWorker(0); err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)
}

// TestRecoverWorkerOverTCP exercises kill + restore on the real socket
// transport: the node's endpoint resets, peers' cached connections die, and
// their send-retry redials must reach the replacement worker.
func TestRecoverWorkerOverTCP(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 97})
	want := expectedMarks(g)

	cfg := smallConfig()
	cfg.UseTCP = true
	cfg.CheckpointEvery = 3 * time.Millisecond
	cfg.CheckpointDir = t.TempDir()
	cfg.Partitioner = partition.Hash{}
	cfg.Stealing = false

	job, err := cluster.Start(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	job.KillWorker(1)
	time.Sleep(2 * time.Millisecond)
	if err := job.RecoverWorker(1); err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, res.Records, want)
}
