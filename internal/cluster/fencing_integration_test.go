package cluster_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gminer/internal/chaos"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
	"gminer/internal/trace"
)

// fencingSpec is the workload the fencing soaks run: cd emissions are a
// pure function of each task (no global aggregator gate), so replayed or
// re-mined tasks emit exactly what the original would have — the
// byte-identical contract these tests assert.
func fencingSpec() jobspec.Spec {
	return jobspec.Spec{App: "cd", MinSim: 0.4, MinSize: 3}.Normalize()
}

// fencingRef computes the fault-free single-process reference records.
func fencingRef(t *testing.T, g *graph.Graph, sp jobspec.Spec, cfg cluster.Config) []string {
	t.Helper()
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cluster.Run(g, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Records) == 0 {
		t.Fatal("degenerate reference: no matches")
	}
	return ref.Records
}

// holdJobs arms the soaks' deterministic hold on cfg (cluster.HoldLastSeed):
// jobs of workers built from it keep one seed back on every slot until the
// returned release is called, so "the job was still running when the fault
// landed" no longer rests on the job being slow enough.
func holdJobs(cfg *cluster.Config) (release func()) {
	ch := make(chan struct{})
	cluster.HoldLastSeed(cfg, ch)
	return func() { close(ch) }
}

// awaitManifest blocks until the job's coordinator MANIFEST exists (the
// first checkpoint epoch committed) or the job finishes first.
func awaitManifest(t *testing.T, j *cluster.Job, coordDir, id string) {
	t.Helper()
	manifest := filepath.Join(coordDir, id, "MANIFEST")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(manifest); err == nil {
			return
		}
		if j.Done() {
			t.Fatal("job finished before a checkpoint committed; hold it (holdJobs)")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint committed within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A replacement claiming a slot whose previous holder is STILL ALIVE must
// fence the predecessor out, not split-brain the job: the zombie's
// heartbeats, progress frames, checkpoint acks and final result are all
// refused, the replacement restores from the committed epoch, and the
// job's records stay byte-identical to a fault-free run.
func TestRemoteZombieFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fencing soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 103})
	sp := fencingSpec()
	jobspec.Prepare(g, sp)

	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	cfg.Stealing = false // a migration in flight at fencing time would be lost
	want := fencingRef(t, g, sp, cfg)
	release := holdJobs(&cfg)

	coordDir := t.TempDir()
	workerDir := t.TempDir()
	cfg.CheckpointDir = coordDir
	rs, wps := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{
			FailTimeout:   2 * time.Second,
			ResultTimeout: 240 * time.Second,
		},
		cluster.WorkerOptions{
			HeartbeatEvery: 20 * time.Millisecond,
			CheckpointDir:  workerDir,
		})

	tr := trace.New(cfg.Workers+1, 4096).EnableEvents()
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	j, err := rs.Launch(a, cluster.JobOptions{
		ID:              "zombie-fenced",
		Spec:            &sp,
		Tracer:          tr,
		CheckpointEvery: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitManifest(t, j, coordDir, "zombie-fenced")

	// Start a replacement claiming node 1's slot and checkpoint directory
	// WITHOUT killing the original: from the coordinator's welcome onward
	// the original is a zombie — alive, mining, heartbeating — and every
	// frame it sends must die at the transport.
	zombieNode := wps[1].Node()
	replacement, err := cluster.StartWorkerProcess(g, cfg, cluster.WorkerOptions{
		Coordinator:    rs.Addr(),
		Node:           zombieNode,
		CheckpointDir:  filepath.Join(workerDir, fmt.Sprintf("node-%d", zombieNode)),
		HeartbeatEvery: 20 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replacement.Close)
	if replacement.Generation() != 2 {
		t.Fatalf("replacement admitted at generation %d, want 2", replacement.Generation())
	}

	release()
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("records diverge with a zombie on the network: got %d records, want %d",
			len(res.Records), len(want))
	}

	// The zombie is still running (cleanup closes it later): its heartbeats
	// keep arriving at the fenced-out generation. They must be counted as
	// refused, and must not flip the slot's registry entry back.
	deadline := time.Now().Add(10 * time.Second)
	for rs.FencedFrames() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fenced frames counted while a zombie heartbeats")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := tr.EventCount(trace.EvFenced); n == 0 {
		t.Fatal("no EvFenced trace events recorded")
	}
	health := rs.WorkerHealth()
	if !health[zombieNode].Joined || health[zombieNode].Generation != 2 {
		t.Fatalf("slot %d after fencing: %+v (want joined at generation 2)", zombieNode, health[zombieNode])
	}
}

// A rolling restart — SIGTERM-drain each worker in sequence, replace it,
// wait for the replacement to rejoin — must lose no progress: every
// drain ends in a committed barrier epoch, every replacement restores
// from it, and the job's records stay byte-identical.
func TestRemoteRollingRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second rolling-restart soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 211})
	sp := fencingSpec()
	jobspec.Prepare(g, sp)

	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	cfg.Stealing = false
	want := fencingRef(t, g, sp, cfg)
	release := holdJobs(&cfg)

	coordDir := t.TempDir()
	workerDir := t.TempDir()
	cfg.CheckpointDir = coordDir
	rs, wps := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{
			FailTimeout:   2 * time.Second,
			ResultTimeout: 240 * time.Second,
		},
		cluster.WorkerOptions{
			HeartbeatEvery: 20 * time.Millisecond,
			CheckpointDir:  workerDir,
		})

	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	j, err := rs.Launch(a, cluster.JobOptions{
		ID:              "rolling",
		Spec:            &sp,
		CheckpointEvery: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitManifest(t, j, coordDir, "rolling")

	for i, wp := range wps {
		if j.Done() {
			t.Fatalf("held job finished before worker %d restarted", i)
		}
		if err := wp.Drain(60 * time.Second); err != nil {
			t.Fatalf("worker %d drain: %v", i, err)
		}
		if !wp.Draining() {
			t.Fatalf("worker %d not in draining state after Drain", i)
		}
		wp.Close()
		replacement, err := cluster.StartWorkerProcess(g, cfg, cluster.WorkerOptions{
			Coordinator:    rs.Addr(),
			Node:           i,
			CheckpointDir:  filepath.Join(workerDir, fmt.Sprintf("node-%d", i)),
			HeartbeatEvery: 20 * time.Millisecond,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("worker %d replacement: %v", i, err)
		}
		t.Cleanup(replacement.Close)
		if replacement.Generation() != 2 {
			t.Fatalf("worker %d replacement admitted at generation %d, want 2", i, replacement.Generation())
		}
	}

	release()
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("records diverge after rolling restart: got %d records, want %d",
			len(res.Records), len(want))
	}
	if res.Recovered == 0 {
		t.Fatal("result does not report any recovery")
	}
	for i, st := range rs.WorkerHealth() {
		if !st.Joined || st.Generation != 2 {
			t.Fatalf("slot %d after rolling restart: %+v (want joined at generation 2)", i, st)
		}
	}
}

// Killing the whole cluster — coordinator included — and restarting the
// coordinator with Resume must rebuild the held job from its durable
// JOBSPEC + MANIFEST, wait for the slots to rejoin with their held
// epochs, restore every worker from one consistent committed cut, and
// finish byte-identically.
func TestRemoteCoordinatorResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second coordinator-restart soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 307})
	sp := fencingSpec()
	jobspec.Prepare(g, sp)

	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	cfg.Stealing = false
	want := fencingRef(t, g, sp, cfg)
	release := holdJobs(&cfg)

	coordDir := t.TempDir()
	workerDir := t.TempDir()
	cfg.CheckpointDir = coordDir
	rs, wps := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{
			FailTimeout:   2 * time.Second,
			ResultTimeout: 240 * time.Second,
		},
		cluster.WorkerOptions{
			HeartbeatEvery: 20 * time.Millisecond,
			CheckpointDir:  workerDir,
		})

	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	j, err := rs.Launch(a, cluster.JobOptions{
		ID:              "held-job",
		Spec:            &sp,
		CheckpointEvery: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitManifest(t, j, coordDir, "held-job")
	if j.Done() {
		t.Fatal("held job finished before the coordinator restart")
	}

	// Full-cluster shutdown: the coordinator goes first (its Close cancels
	// the job attributing coordinator shutdown, which keeps the JOBSPEC on
	// disk), then the worker processes.
	rs.Close()
	for _, wp := range wps {
		wp.Close()
	}
	release() // the restarted cluster runs the job out

	// Restarted coordinator: same checkpoint directory, Resume on.
	cfg2 := cfg
	cfg2.Resume = true
	rs2, err := cluster.NewRemoteSession(g, cfg2, cluster.RemoteSessionConfig{
		FailTimeout:   2 * time.Second,
		ResultTimeout: 240 * time.Second,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs2.Close)
	held := rs2.HeldJobs()
	if len(held) != 1 || held[0].ID != "held-job" {
		t.Fatalf("held jobs after restart: %+v (want the one launched job)", held)
	}

	// Restarted workers: same slots, same checkpoint directories — their
	// hellos advertise the committed epochs they still hold, and the
	// coordinator pins the resume to the highest epoch all of them share.
	for i := 0; i < cfg.Workers; i++ {
		wp, err := cluster.StartWorkerProcess(g, cfg, cluster.WorkerOptions{
			Coordinator:    rs2.Addr(),
			Node:           i,
			CheckpointDir:  filepath.Join(workerDir, fmt.Sprintf("node-%d", i)),
			HeartbeatEvery: 20 * time.Millisecond,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("worker %d restart: %v", i, err)
		}
		t.Cleanup(wp.Close)
	}
	if err := rs2.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Resubmit under the original ID — what gminerd's -resume path does.
	a2, err := jobspec.Build(g, held[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := rs2.Launch(a2, cluster.JobOptions{
		ID:              held[0].ID,
		Spec:            &held[0].Spec,
		CheckpointEvery: time.Duration(held[0].CheckpointEverySeconds * float64(time.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("records diverge after coordinator resume: got %d records, want %d",
			len(res.Records), len(want))
	}
}

// The heartbeat-chaos soak: a worker whose heartbeats are mostly dropped
// and otherwise heavily delayed looks dead to the coordinator, which
// reclaims its slot for an auto-assigned replacement. The original is
// ALIVE the whole time — its delayed beats keep trickling in — and must
// be fenced, not split-brained: the refused frames are counted, and the
// slot's registry entry stays with the replacement's generation.
func TestRemoteHeartbeatChaosFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second heartbeat-chaos soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 19})
	cfg := smallConfig()
	cfg.Workers = 2

	coordDir := t.TempDir()
	_ = coordDir
	rs, wps := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{FailTimeout: 150 * time.Millisecond},
		cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond})
	// remoteTestCluster cannot thread per-worker options, so rebuild
	// worker 1 with the chaotic heartbeat path: close the healthy one and
	// admit a flaky replacement on its slot (generation 2).
	wps[1].Close()
	flaky, err := cluster.StartWorkerProcess(g, cfg, cluster.WorkerOptions{
		Coordinator:    rs.Addr(),
		Node:           1,
		HeartbeatEvery: 20 * time.Millisecond,
		HeartbeatChaos: chaos.New(chaos.HeartbeatFlaky(42)),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(flaky.Close)
	if flaky.Generation() != 2 {
		t.Fatalf("flaky worker admitted at generation %d, want 2", flaky.Generation())
	}

	// Wait for the flaky slot to look dead: its last accepted heartbeat
	// older than the failure timeout.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := rs.WorkerHealth()[1]
		if time.Since(st.LastSeen) > 150*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flaky worker's heartbeats kept arriving; slot never went stale")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An auto-assigned replacement (Node -1) must reclaim the stale slot.
	// A delayed zombie beat can land between our staleness check and the
	// hello and refresh the slot, so retry until admission succeeds.
	var replacement *cluster.WorkerProcess
	for time.Now().Before(deadline) {
		replacement, err = cluster.StartWorkerProcess(g, cfg, cluster.WorkerOptions{
			Coordinator:    rs.Addr(),
			Node:           -1,
			HeartbeatEvery: 20 * time.Millisecond,
			JoinTimeout:    2 * time.Second,
			Logf:           t.Logf,
		})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("no replacement admitted: %v", err)
	}
	t.Cleanup(replacement.Close)
	if replacement.Node() != 1 {
		t.Fatalf("replacement auto-assigned slot %d, want the stale slot 1", replacement.Node())
	}
	if replacement.Generation() != 3 {
		t.Fatalf("replacement admitted at generation %d, want 3", replacement.Generation())
	}

	// Soak: the zombie stays alive, its delayed beats keep arriving at the
	// fenced-out generation. They must be counted as refused and must
	// never flip the slot's registry entry away from the replacement.
	soakEnd := time.Now().Add(2 * time.Second)
	for time.Now().Before(soakEnd) {
		st := rs.WorkerHealth()[1]
		if st.Generation != 3 {
			t.Fatalf("slot 1 registry moved off the replacement's generation: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for rs.FencedFrames() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fenced frames counted while the zombie heartbeats")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := rs.WorkerHealth()[1]
	if !st.Joined || st.Generation != 3 {
		t.Fatalf("slot 1 after soak: %+v (want joined at generation 3)", st)
	}
	select {
	case <-flaky.Done():
		// The zombie's control link may drop once the coordinator redials
		// the slot's new address; the process itself is still running
		// (Close has not been called), which is all the soak needs.
	default:
	}
}
