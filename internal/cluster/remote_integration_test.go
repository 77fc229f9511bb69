package cluster_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/partition"
)

// remoteTestCluster brings up a coordinator and cfg.Workers in-process
// WorkerProcess instances over real TCP sockets.
func remoteTestCluster(t *testing.T, g *graph.Graph, cfg cluster.Config,
	rcfg cluster.RemoteSessionConfig, wopt cluster.WorkerOptions) (*cluster.Session, []*cluster.WorkerProcess) {
	t.Helper()
	rcfg.Logf = t.Logf
	rs, err := cluster.NewRemoteSession(g, cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	wps := make([]*cluster.WorkerProcess, cfg.Workers)
	for i := range wps {
		o := wopt
		o.Coordinator = rs.Addr()
		o.Node = i
		if o.Logf == nil {
			o.Logf = t.Logf
		}
		if wopt.CheckpointDir != "" {
			o.CheckpointDir = filepath.Join(wopt.CheckpointDir, fmt.Sprintf("node-%d", i))
		}
		wp, err := cluster.StartWorkerProcess(g, cfg, o)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		wps[i] = wp
		t.Cleanup(wp.Close)
	}
	if err := rs.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	return rs, wps
}

// A multi-process cluster must serve byte-identical results to a
// single-process run of the same specs — concurrently, over real TCP.
func TestRemoteSessionByteIdentical(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 7})
	// qc and cd only: their record sets are pure per-task functions.
	// mcf's emissions are gated on the global-best aggregate, whose
	// propagation timing differs across process topologies.
	specs := []jobspec.Spec{
		{App: "qc"},
		{App: "cd", MinSim: 0.4, MinSize: 3},
	}
	for _, sp := range specs {
		jobspec.Prepare(g, sp)
	}

	cfg := smallConfig()
	want := make([][]string, len(specs))
	for i, sp := range specs {
		a, err := jobspec.Build(g, sp.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Run(g, a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Records
		if len(want[i]) == 0 {
			t.Fatalf("degenerate reference for %s: no records", sp.App)
		}
	}

	rs, _ := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{},
		cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond})

	jobs := make([]*cluster.Job, len(specs))
	for i, sp := range specs {
		sp := sp.Normalize()
		a, err := jobspec.Build(g, sp)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i], err = rs.Launch(a, cluster.JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("%s: %v", specs[i].App, err)
		}
		if !reflect.DeepEqual(res.Records, want[i]) {
			t.Fatalf("%s: remote records diverge from single-process run: got %d records, want %d",
				specs[i].App, len(res.Records), len(want[i]))
		}
		if res.Total.TasksDone == 0 {
			t.Fatalf("%s: no shipped worker counters in result", specs[i].App)
		}
	}
	if rs.ActiveJobs() != 0 {
		t.Fatalf("jobs leaked: %d active", rs.ActiveJobs())
	}
}

// Two worker processes under the blocked partitioner (`gminer-worker
// -partitioner blocked`) join a coordinator and serve tc and gm with the
// aggregates and records of an in-process Session on the same graph.
func TestRemoteBlockedClusterServes(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 7})
	specs := []jobspec.Spec{{App: "tc"}, {App: "gm"}}
	for i := range specs {
		specs[i] = specs[i].Normalize()
		jobspec.Prepare(g, specs[i])
	}
	cfg := smallConfig()
	cfg.Workers, cfg.Partitioner = 2, partition.Blocked{}

	local, rs := openSession(t, g, cfg, goroutines), openSession(t, g, cfg, processes)
	run := func(s *cluster.Session, sp jobspec.Spec) *cluster.Result {
		a, err := jobspec.Build(g, sp)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Launch(a, cluster.JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("%s: %v", sp.App, err)
		}
		return res
	}
	for _, sp := range specs {
		want, got := run(local, sp), run(rs, sp)
		if n, _ := want.AggGlobal.(int64); n == 0 {
			t.Fatalf("%s: degenerate reference aggregate %v", sp.App, want.AggGlobal)
		}
		if !reflect.DeepEqual(got.AggGlobal, want.AggGlobal) || !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("%s: remote aggregate %v and %d records, in-process %v and %d",
				sp.App, got.AggGlobal, len(got.Records), want.AggGlobal, len(want.Records))
		}
		if got.Total.TasksDone == 0 {
			t.Fatalf("%s: no shipped worker counters in result", sp.App)
		}
	}
}

// viewSpy counts the oriented views offered to a coordinator-side
// algorithm value.
type viewSpy struct {
	*algo.TriangleCount
	offers int
}

func (k *viewSpy) Plan() core.Plan {
	p := k.TriangleCount.Plan()
	oriented := p.Oriented
	p.Oriented = func(gplus *graph.Graph, rc *kernels.ResidentCore) {
		k.offers++
		oriented(gplus, rc)
	}
	return p
}

// The coordinator of a multi-process job hosts no worker, so it must not
// orient its copy of the graph (or offer its algorithm value a view) per
// launch; the worker processes keep their once-per-process view, and the
// aggregate stays byte-identical to a single-process run.
func TestRemoteCoordinatorOrientsNothing(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 7})
	cfg := smallConfig()
	ref, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.AggGlobal.(int64) == 0 {
		t.Fatal("degenerate reference: no triangles")
	}

	rs, _ := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{},
		cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond})
	sp := jobspec.Spec{App: "tc"}.Normalize()
	for launch := 0; launch < 2; launch++ {
		spy := &viewSpy{TriangleCount: algo.NewTriangleCount()}
		j, err := rs.Launch(spy, cluster.JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if spy.offers != 0 {
			t.Fatalf("launch %d: coordinator-side algorithm was offered an oriented view %d time(s)", launch, spy.offers)
		}
		if !reflect.DeepEqual(res.AggGlobal, ref.AggGlobal) {
			t.Fatalf("launch %d: remote triangle count %v, single-process %v", launch, res.AggGlobal, ref.AggGlobal)
		}
		if res.Total.TasksDone == 0 {
			t.Fatalf("launch %d: no shipped worker counters in result", launch)
		}
	}
}

// TC over loopback TCP between worker processes, hash-partitioned so half of
// every list is remote: the job on G⁺, its hottest lists resident in every
// process, counts what the undirected job counts over loopback TCP between
// goroutine workers of the same shape, and moves strictly fewer bytes doing
// it — on a graph big enough that pulls, not heartbeats, are the bytes.
// Worker processes rebuild TC from its spec, which always plans G⁺, so the
// undirected job runs on the goroutine host.
func TestRemoteJobTCMovesFewerBytesThanGeneric(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 103})
	want := algo.RefTriangles(g)
	cfg := smallConfig()
	cfg.Workers, cfg.Partitioner = 2, partition.Hash{}
	rs, _ := remoteTestCluster(t, g, cfg,
		cluster.RemoteSessionConfig{},
		cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond})
	tcp := cfg
	tcp.UseTCP = true
	gs, err := cluster.NewSession(g, tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	sp := jobspec.Spec{App: "tc"}.Normalize()
	oriented, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	netBytes := map[bool]int64{}
	for _, undirected := range []bool{false, true, false} { // the last oriented launch is warm
		s, a := rs, oriented
		if undirected {
			s, a = gs, cluster.NewUndirectedTC()
		}
		j, err := s.Launch(a, cluster.JobOptions{Spec: &sp})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.AggGlobal != any(want) || undirected != (res.ResidentLists == 0) {
			t.Fatalf("undirected=%v: %v triangles with %d resident lists, want %d", undirected, res.AggGlobal, res.ResidentLists, want)
		}
		netBytes[undirected] = res.Total.NetBytes
	}
	if netBytes[false] >= netBytes[true] {
		t.Fatalf("the oriented job moved %d bytes, the undirected one %d", netBytes[false], netBytes[true])
	}
	t.Logf("net bytes: oriented %d, undirected %d", netBytes[false], netBytes[true])
}

// Job.KillWorker / RecoverWorker go through the worker host, so they work
// on a multi-process job too: the kill takes down the job's worker inside
// its (still healthy) worker process, and recovery — by hand, or by the
// failure detector's loop — has that process rebuild it from the committed
// epochs. Records stay byte-identical to a fault-free single-process run.
func TestRemoteJobKillRecoverWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/recover soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 103})
	sp := fencingSpec()
	jobspec.Prepare(g, sp)
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	cfg.Stealing = false // a migration in flight at kill time would be lost
	want := fencingRef(t, g, sp, cfg)

	for _, auto := range []bool{false, true} {
		coordDir := t.TempDir()
		cfg.CheckpointDir, cfg.FailTimeout = coordDir, 300*time.Millisecond
		// Held: the kill lands mid-job, and the victim's frozen last report
		// (seeds not done) keeps the job open until a recovery replaces it.
		release := holdJobs(&cfg)
		rs, _ := remoteTestCluster(t, g, cfg,
			cluster.ResultTimeout(240*time.Second),
			cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond, CheckpointDir: t.TempDir()})
		a, err := jobspec.Build(g, sp)
		if err != nil {
			t.Fatal(err)
		}
		j, err := rs.Launch(a, cluster.JobOptions{ID: "kill-recover", Spec: &sp, CheckpointEvery: 3 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		awaitManifest(t, j, coordDir, "kill-recover")
		j.KillWorker(1)
		if !auto {
			if err := j.RecoverWorker(1); err != nil {
				t.Fatal(err)
			}
		}
		release()
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Records, want) {
			t.Fatalf("auto=%v: records diverge after kill+recover: got %d records, want %d", auto, len(res.Records), len(want))
		}
		if res.Recovered == 0 {
			t.Fatalf("auto=%v: result does not report the recovery", auto)
		}
		if health := rs.WorkerHealth(); !health[1].Joined || health[1].Generation != 1 {
			t.Fatalf("auto=%v: the worker process must have survived its job's kill: %+v", auto, health[1])
		}
		rs.Close()
	}
}

// A worker process with no checkpoint directory keeps a job's snapshots in
// its own temporary root across a restart of the job's worker: killed after
// a commit, the replacement restores a committed epoch, and the records are
// the fault-free run's.
func TestRemoteWorkerRestoresWithoutCheckpointDir(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/recover soak")
	}
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 103})
	sp := fencingSpec()
	jobspec.Prepare(g, sp)
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	cfg.Stealing = false // a migration in flight at kill time would be lost
	want := fencingRef(t, g, sp, cfg)

	coordDir := t.TempDir()
	cfg.CheckpointDir = coordDir
	release := holdJobs(&cfg)
	restored := make(chan struct{}, 1)
	wopt := cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond, Logf: func(format string, args ...any) {
		t.Logf(format, args...)
		if strings.Contains(format, "restored from committed epoch") {
			select {
			case restored <- struct{}{}:
			default: // the test reads one; never block the worker process
			}
		}
	}}
	rs, _ := remoteTestCluster(t, g, cfg, cluster.ResultTimeout(240*time.Second), wopt)
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	j, err := rs.Launch(a, cluster.JobOptions{ID: "tmp-restore", Spec: &sp, CheckpointEvery: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	awaitManifest(t, j, coordDir, "tmp-restore")
	j.KillWorker(1)
	if err := j.RecoverWorker(1); err != nil {
		t.Fatal(err)
	}
	release()
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("records diverge after kill+recover: got %d records, want %d", len(res.Records), len(want))
	}
	select {
	case <-restored:
	default:
		t.Fatal("the replacement started fresh: its snapshots died with the killed worker")
	}
}

// A job that ends while its worker lies killed takes that worker's snapshots
// out of the process's temporary root: its stop reaches the process before
// the next job's start does, so once that job is through the directory is
// gone, and Close leaves nothing in TMPDIR.
func TestRemoteKilledWorkerSnapshotsEndWithJob(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	t.Cleanup(func() { // runs after the worker processes' Close
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("Close left %v in TMPDIR", left)
		}
	})
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 61})
	sp := jobspec.Spec{App: "tc"}.Normalize()
	jobspec.Prepare(g, sp)
	cfg := smallConfig()
	cfg.Stealing = false
	coordDir := t.TempDir()
	cfg.CheckpointDir = coordDir
	release := holdJobs(&cfg)
	rs, _ := remoteTestCluster(t, g, cfg, cluster.ResultTimeout(time.Second), cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond})
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	j, err := rs.Launch(a, cluster.JobOptions{ID: "killed", Spec: &sp, CheckpointEvery: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	awaitManifest(t, j, coordDir, "killed")
	if held, _ := filepath.Glob(filepath.Join(tmp, "gminer-worker-*", "killed")); len(held) != cfg.Workers {
		t.Fatalf("snapshot directories %v, want one per worker process", held)
	}
	j.KillWorker(1)
	j.Cancel()
	if _, err := j.Wait(); !errors.Is(err, cluster.ErrCancelled) {
		t.Fatalf("cancelled job: %v", err)
	}
	release()
	next, err := rs.Launch(a, cluster.JobOptions{ID: "next", Spec: &sp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(); err != nil {
		t.Fatal(err)
	}
	if held, _ := filepath.Glob(filepath.Join(tmp, "gminer-worker-*", "killed")); len(held) != 0 {
		t.Fatalf("the ended job left %v", held)
	}
}

// A worker process that cannot start a job's worker — here its checkpoint
// directory cannot be made — nacks the start, and the coordinator fails the
// job at once with the worker's error instead of waiting for a result that
// never comes.
func TestRemoteWorkerStartFailureFailsJob(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 3})
	sp := jobspec.Spec{App: "tc"}.Normalize()
	jobspec.Prepare(g, sp)
	cfg := smallConfig()
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, _ := remoteTestCluster(t, g, cfg, cluster.RemoteSessionConfig{}, cluster.WorkerOptions{CheckpointDir: blocker})
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	j, err := rs.Launch(a, cluster.JobOptions{ID: "doomed", Spec: &sp})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := j.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("the job failed after %v", elapsed)
		}
		if err == nil || !strings.Contains(err.Error(), "cluster: worker ") || !strings.Contains(err.Error(), "not a directory") {
			t.Fatalf("job error %v, want the worker and its cause", err)
		}
		if j.Err() == nil || j.Err().Error() != err.Error() {
			t.Fatalf("Job.Err %v, Wait %v", j.Err(), err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the job did not fail within 30 s")
	}
}

// Launching without a Spec must be refused: worker processes can only
// rebuild the algorithm from a spec.
func TestRemoteLaunchRequiresSpec(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 800, Seed: 11})
	cfg := smallConfig()
	rs, err := cluster.NewRemoteSession(g, cfg, cluster.RemoteSessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sp := jobspec.Spec{App: "tc"}.Normalize()
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Launch(a, cluster.JobOptions{}); err == nil {
		t.Fatal("launch without Spec accepted")
	}
}

// A worker process built over a different graph (wrong fingerprint) must
// be refused at the handshake.
func TestRemoteJoinRejectsFingerprintMismatch(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 800, Seed: 11})
	other := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 800, Seed: 13})
	cfg := smallConfig()
	rs, err := cluster.NewRemoteSession(g, cfg, cluster.RemoteSessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	_, err = cluster.StartWorkerProcess(other, cfg, cluster.WorkerOptions{
		Coordinator: rs.Addr(),
		Node:        -1,
		JoinTimeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("mismatched worker joined")
	}
}

// Kill one worker process mid-job, start a replacement claiming the same
// slot and checkpoint directory, and require the job to complete with
// records byte-identical to a fault-free single-process run: the
// coordinator re-admits the replacement and hands it the committed
// (epoch, crc) pairs to restore from.
func TestRemoteWorkerKillAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/rejoin soak")
	}
	// Sized so the remote run lasts seconds (kill + rejoin fit mid-job)
	// but stays tractable under the race detector on small CI hosts.
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 40000, Seed: 103})
	// cd: its emissions are a pure function of each task (no global
	// aggregator gate), so a replacement re-mining restored tasks emits
	// exactly what the dead worker would have. mcf would NOT work here —
	// its emission is gated on the racy global-best aggregate.
	sp := jobspec.Spec{App: "cd", MinSim: 0.4, MinSize: 3}.Normalize()
	jobspec.Prepare(g, sp)

	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	// Stealing off: a migration in flight at kill time would be lost (the
	// paper's checkpoint protocol shares the hole); recovery_test.go makes
	// the same choice.
	cfg.Stealing = false

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
	release := holdJobs(&cfg)

	coordDir := t.TempDir()
	workerDir := t.TempDir()
	cfg.CheckpointDir = coordDir
	rs, wps := remoteTestCluster(t, g, cfg,
		// The default 2 s fail timeout is generous on purpose: under load,
		// heartbeats and progress share the TCP path with mining traffic,
		// and the race detector can starve the heartbeat goroutine; a tight
		// timeout flaps every slot.
		cluster.ResultTimeout(240*time.Second),
		cluster.WorkerOptions{
			HeartbeatEvery: 20 * time.Millisecond,
			CheckpointDir:  workerDir,
		})

	a2, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	j, err := rs.Launch(a2, cluster.JobOptions{
		ID:              "kill-rejoin",
		Spec:            &sp,
		CheckpointEvery: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first committed epoch (the coordinator's MANIFEST
	// appears), then crash the process holding one worker slot.
	awaitManifest(t, j, coordDir, "kill-rejoin")
	victim := wps[1]
	victimNode := victim.Node()
	victim.Kill()
	t.Logf("killed worker process holding node %d", victimNode)
	time.Sleep(20 * time.Millisecond)
	if j.Done() {
		t.Fatal("held job finished before the replacement joined")
	}

	// The replacement claims the dead process's slot and points at its
	// checkpoint directory: the coordinator vouches for the committed
	// epochs, the local files supply the payloads.
	replacement, err := cluster.StartWorkerProcess(g, cfg, cluster.WorkerOptions{
		Coordinator:    rs.Addr(),
		Node:           victimNode,
		CheckpointDir:  filepath.Join(workerDir, fmt.Sprintf("node-%d", victimNode)),
		HeartbeatEvery: 20 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replacement.Close)

	release()
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, ref.Records) {
		t.Fatalf("records diverge after kill+rejoin: got %d records, want %d",
			len(res.Records), len(ref.Records))
	}
	if res.Recovered == 0 {
		t.Fatal("result does not report the recovery")
	}
	health := rs.WorkerHealth()
	if !health[victimNode].Joined || health[victimNode].Generation < 2 {
		t.Fatalf("slot %d health after rejoin: %+v", victimNode, health[victimNode])
	}
}

// Worker processes join only a coordinator whose graph names its vertices
// alike: a process that loaded the same file joins, and one whose file
// differs only in its external IDs — the same structure, numbered the same
// internally, naming other IDs in its records — is refused at the handshake.
func TestJoinRefusesRelabelledGraph(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 600, Seed: 3})
	strided, _ := cluster.StridedIDs(g)
	dir := t.TempDir()
	load := func(name string, g *graph.Graph) *graph.Graph {
		path := filepath.Join(dir, name)
		if err := graph.SaveFile(path, g); err != nil {
			t.Fatal(err)
		}
		loaded, err := graph.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	cfg := smallConfig()
	cfg.Workers = 2
	rs, err := cluster.NewRemoteSession(load("coordinator.txt", g), cfg, cluster.RemoteSessionConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for node, tc := range []struct {
		file string
		g    *graph.Graph
		join bool
	}{{"same.txt", g, true}, {"strided.txt", strided, false}} {
		wp, err := cluster.StartWorkerProcess(load(tc.file, tc.g), cfg,
			cluster.WorkerOptions{Coordinator: rs.Addr(), Node: node, Logf: t.Logf, JoinTimeout: 5 * time.Second})
		if err == nil {
			defer wp.Close()
		}
		if tc.join != (err == nil) || !tc.join && !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("%s: join error %v, want joined=%v", tc.file, err, tc.join)
		}
	}
}
