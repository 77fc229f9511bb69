package cluster_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/memctl"
	"gminer/internal/partition"
)

// servingGraph builds one graph usable by every algorithm family: labels
// for GraphMatch, attrs for the similarity-based miners. The session owns
// a frozen graph, so anything jobs need must be assigned up front.
func servingGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 7})
	gen.AssignLabels(g, 7, 99)
	gen.AssignAttrs(g, 5, 10, 2)
	return g
}

func joinRecords(res *cluster.Result) string {
	out := ""
	for _, r := range res.Records {
		out += r + "\n"
	}
	return fmt.Sprintf("agg=%v\n%s", res.AggGlobal, out)
}

// TestSessionConcurrentJobsByteIdentical runs three different algorithms
// concurrently over one warm cluster and checks each against its own
// single-shot reference — the serving-mode isolation guarantee.
func TestSessionConcurrentJobsByteIdentical(t *testing.T) {
	g := servingGraph(t)
	pattern := algo.FigurePattern()

	// MaxClique is deliberately absent: its record set depends on aggregator
	// propagation timing (branch-and-bound pruning), so only deterministic
	// workloads — TC, GM, CD, the CI smoke trio — are byte-compared.
	cd := func() *algo.CommunityDetect { return algo.NewCommunityDetect(0.2, 3) }
	refs := make(map[string]string)
	for name, a := range map[string]func() (res *cluster.Result, err error){
		"tc": func() (*cluster.Result, error) { return cluster.Run(g, algo.NewTriangleCount(), smallConfig()) },
		"cd": func() (*cluster.Result, error) { return cluster.Run(g, cd(), smallConfig()) },
		"gm": func() (*cluster.Result, error) { return cluster.Run(g, algo.NewGraphMatch(pattern), smallConfig()) },
	} {
		res, err := a()
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		refs[name] = joinRecords(res)
	}

	s, err := cluster.NewSession(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	got := make(map[string]string)
	errs := make(map[string]error)
	launch := func(name string, j *cluster.Job, err error) {
		if err != nil {
			t.Fatalf("launch %s: %v", name, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := j.Wait()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[name] = err
				return
			}
			got[name] = joinRecords(res)
		}()
	}
	j1, err1 := s.Launch(algo.NewTriangleCount(), cluster.JobOptions{ID: "tc"})
	j2, err2 := s.Launch(cd(), cluster.JobOptions{ID: "cd"})
	j3, err3 := s.Launch(algo.NewGraphMatch(pattern), cluster.JobOptions{ID: "gm"})
	launch("tc", j1, err1)
	launch("cd", j2, err2)
	launch("gm", j3, err3)
	wg.Wait()

	for name, err := range errs {
		t.Fatalf("job %s: %v", name, err)
	}
	for name, want := range refs {
		if got[name] != want {
			t.Errorf("job %s diverges from its single-shot reference", name)
		}
	}
	if n := s.ActiveJobs(); n != 0 {
		t.Fatalf("ActiveJobs after all Waits: got %d want 0", n)
	}
}

// TestSessionCancelMidJob cancels one job mid-flight and checks (a) its
// Wait returns ErrCancelled promptly instead of hanging on queued tasks,
// (b) a co-resident job is unaffected and still byte-identical, (c) the
// session drains to zero active jobs.
func TestSessionCancelMidJob(t *testing.T) {
	g := servingGraph(t)
	ref, err := cluster.Run(g, algo.NewTriangleCount(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Simulated latency slows the victim's pull rounds enough that Cancel
	// reliably lands mid-round.
	cfg := smallConfig()
	cfg.Latency = 500 * time.Microsecond
	s, err := cluster.NewSession(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	victim, err := s.Launch(algo.NewMaxClique(), cluster.JobOptions{ID: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := s.Launch(algo.NewTriangleCount(), cluster.JobOptions{ID: "survivor"})
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(5 * time.Millisecond)
	victim.Cancel()

	waitDone := make(chan error, 1)
	go func() {
		_, err := victim.Wait()
		waitDone <- err
	}()
	select {
	case err := <-waitDone:
		if !victim.Done() {
			t.Fatal("victim Wait returned before termination")
		}
		if err != nil && !errors.Is(err, cluster.ErrCancelled) {
			t.Fatalf("victim error: got %v, want ErrCancelled (or nil if it won the race)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job failed to drain: Wait hung")
	}

	res, err := survivor.Wait()
	if err != nil {
		t.Fatalf("co-resident job: %v", err)
	}
	if got, want := joinRecords(res), joinRecords(ref); got != want {
		t.Fatal("co-resident job result diverged after a neighbour was cancelled")
	}
	if n := s.ActiveJobs(); n != 0 {
		t.Fatalf("ActiveJobs after cancel+waits: got %d want 0", n)
	}
}

// TestSessionRecoverWorker kills one worker of a Session-launched job
// mid-run and recovers it — by hand, then through the FailTimeout
// auto-recovery loop — while a co-resident job keeps running on the same
// warm cluster. Recovery goes through the worker host and the job's mux
// mailbox, so it works on a session exactly as on a one-shot run; both
// jobs' records must be byte-identical to a fault-free run.
func TestSessionRecoverWorker(t *testing.T) {
	for _, auto := range []bool{false, true} {
		g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 61})
		want := expectedMarks(g)

		cfg := smallConfig()
		cfg.CheckpointEvery = 3 * time.Millisecond
		cfg.CheckpointDir = t.TempDir()
		cfg.Partitioner = partition.Hash{}
		// Stealing off: see TestRecoveryFromCheckpointExactlyOnce.
		cfg.Stealing = false
		if auto {
			cfg.FailTimeout = 10 * time.Millisecond
		}
		s, err := cluster.NewSession(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		victim, err := s.Launch(&slowMark{delay: 100 * time.Microsecond}, cluster.JobOptions{ID: "victim"})
		if err != nil {
			t.Fatal(err)
		}
		neighbour, err := s.Launch(&slowMark{delay: 100 * time.Microsecond}, cluster.JobOptions{ID: "neighbour"})
		if err != nil {
			t.Fatal(err)
		}
		// Let some checkpoints land, then crash worker 1 of one job only.
		time.Sleep(15 * time.Millisecond)
		victim.KillWorker(1)
		if !auto {
			time.Sleep(2 * time.Millisecond)
			if err := victim.RecoverWorker(1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := victim.Wait()
		if err != nil {
			t.Fatal(err)
		}
		assertSameRecords(t, res.Records, want)
		if res.Recovered == 0 {
			t.Fatalf("auto=%v: result does not report the recovery", auto)
		}
		res, err = neighbour.Wait()
		if err != nil {
			t.Fatal(err)
		}
		assertSameRecords(t, res.Records, want)
		if res.Recovered != 0 {
			t.Fatalf("auto=%v: co-resident job reports %d recoveries", auto, res.Recovered)
		}
		if n := s.ActiveJobs(); n != 0 {
			t.Fatalf("ActiveJobs after both Waits: got %d want 0", n)
		}
		s.Close()
	}
}

// TestSessionMemBudgetCancelsJob gives a job an impossibly small memory
// budget and expects a cancellation wrapping memctl.ErrOOM, with the
// session still able to serve the next job.
func TestSessionMemBudgetCancelsJob(t *testing.T) {
	g := servingGraph(t)
	s, err := cluster.NewSession(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j, err := s.Launch(algo.NewMaxClique(), cluster.JobOptions{ID: "oom", MemBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = j.Wait()
	if !errors.Is(err, memctl.ErrOOM) {
		t.Fatalf("budgeted job error: got %v, want wrapped memctl.ErrOOM", err)
	}
	if !errors.Is(err, cluster.ErrCancelled) {
		t.Fatalf("budgeted job error: got %v, want wrapped ErrCancelled", err)
	}

	// The OOM of one job must not poison the warm cluster.
	j2, err := s.Launch(algo.NewTriangleCount(), cluster.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(); err != nil {
		t.Fatalf("job after OOM neighbour: %v", err)
	}
}

// TestSessionRejectsDuplicateLiveID and closed-session launches.
func TestSessionLaunchValidation(t *testing.T) {
	g := servingGraph(t)
	s, err := cluster.NewSession(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Launch(algo.NewTriangleCount(), cluster.JobOptions{ID: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Launch(algo.NewTriangleCount(), cluster.JobOptions{ID: "dup"}); err == nil {
		t.Fatal("duplicate live job ID accepted")
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	// After the first "dup" finished its ID is reusable.
	j2, err := s.Launch(algo.NewTriangleCount(), cluster.JobOptions{ID: "dup"})
	if err != nil {
		t.Fatalf("finished job ID not reusable: %v", err)
	}
	if _, err := j2.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Launch(algo.NewTriangleCount(), cluster.JobOptions{}); err == nil {
		t.Fatal("closed session accepted a launch")
	}
}

// TestRoundHookCancelCause: the QoS enforcement contract. The per-round
// hook must fire with increasing round numbers while the job runs, and a
// CancelCause issued from it must surface the cause from Wait wrapped in
// ErrCancelled — the signal the serving layer maps to "preempted".
func TestRoundHookCancelCause(t *testing.T) {
	g := servingGraph(t)
	cfg := smallConfig()
	// Slow the rounds down so the job is still mid-flight at round 3.
	cfg.Latency = 500 * time.Microsecond
	s, err := cluster.NewSession(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	overBudget := errors.New("test: over budget")
	fired := make(chan int64, 1)
	var lastRound int64
	hook := func(round int64) {
		if round <= lastRound {
			t.Errorf("round hook went backwards: %d after %d", round, lastRound)
		}
		lastRound = round
		if round == 3 {
			fired <- round
		}
	}
	j, err := s.Launch(algo.NewMaxClique(), cluster.JobOptions{ID: "hooked", RoundHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(30 * time.Second):
		t.Fatal("round hook never reached round 3")
	}
	j.CancelCause(overBudget)
	_, err = j.Wait()
	if !errors.Is(err, overBudget) {
		t.Fatalf("Wait error: got %v, want wrapped cause", err)
	}
	if !errors.Is(err, cluster.ErrCancelled) {
		t.Fatalf("Wait error: got %v, want wrapped ErrCancelled", err)
	}

	// nil cause degrades to a plain Cancel.
	j2, err := s.Launch(algo.NewMaxClique(), cluster.JobOptions{ID: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	j2.CancelCause(nil)
	if _, err := j2.Wait(); err != nil && !errors.Is(err, cluster.ErrCancelled) {
		t.Fatalf("nil-cause cancel: got %v, want ErrCancelled (or nil if it won the race)", err)
	}
}

// TestSessionFingerprint: stable across calls, sensitive to the graph.
func TestSessionFingerprint(t *testing.T) {
	g := servingGraph(t)
	s, err := cluster.NewSession(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := s.Fingerprint()
	if fp == 0 || fp != s.Fingerprint() {
		t.Fatalf("fingerprint unstable: %x vs %x", fp, s.Fingerprint())
	}
	g2 := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 8})
	s2, err := cluster.NewSession(g2, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Fingerprint() == fp {
		t.Fatal("different graphs share a session fingerprint")
	}
}

// TestRerunNoGoroutineLeak is the satellite bugfix check: running jobs
// back to back on the same loaded graph — both single-shot and via a
// session — must not accumulate goroutines (stale mailboxes, untracked
// checkpoint goroutines, spill handles).
func TestRerunNoGoroutineLeak(t *testing.T) {
	g := servingGraph(t)

	// Warm up once so lazily-started runtime goroutines don't count.
	if _, err := cluster.Run(g, algo.NewTriangleCount(), smallConfig()); err != nil {
		t.Fatal(err)
	}
	settle := func() int {
		runtime.GC()
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(10 * time.Millisecond)
			runtime.GC()
			m := runtime.NumGoroutine()
			if m >= n {
				return n
			}
			n = m
		}
		return n
	}
	base := settle()

	for i := 0; i < 3; i++ {
		if _, err := cluster.Run(g, algo.NewTriangleCount(), smallConfig()); err != nil {
			t.Fatal(err)
		}
	}
	s, err := cluster.NewSession(g, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		j, err := s.Launch(algo.NewTriangleCount(), cluster.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	after := settle()
	// A small slack absorbs runtime background goroutines; a leak of even
	// one mailbox or comm loop per rerun would exceed it.
	if after > base+3 {
		t.Fatalf("goroutines leaked across reruns: baseline %d, after %d", base, after)
	}
}
