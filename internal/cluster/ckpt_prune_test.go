package cluster_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/jobspec"
)

// TestWorkerProcessPrunesOldSnapshots: a worker process's sink never
// commits, so the process removes its own snapshot files below the
// manifest's previous committed epoch, which every checkpoint request
// names. However many epochs a job cuts, each worker's job directory holds
// at most the two committed epochs and the one in flight.
func TestWorkerProcessPrunesOldSnapshots(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 7})
	cfg := smallConfig()
	cfg.Workers = 2
	cfg.CheckpointDir = t.TempDir()
	release := sync.OnceFunc(holdJobs(&cfg))
	defer release()
	wdir := t.TempDir()
	s, _ := remoteTestCluster(t, g, cfg, cluster.RemoteSessionConfig{},
		cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond, CheckpointDir: wdir})
	sp := jobspec.Spec{App: "tc"}.Normalize()
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Launch(a, cluster.JobOptions{ID: "prune", Spec: &sp, CheckpointEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 10
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		newest := int64(0)
		for i := 0; i < cfg.Workers; i++ {
			files, _ := filepath.Glob(filepath.Join(wdir, fmt.Sprintf("node-%d", i), "prune", "worker-*.ckpt"))
			held := map[int64]bool{}
			for _, f := range files {
				var w int
				var epoch, gen int64
				if _, err := fmt.Sscanf(filepath.Base(f), "worker-%d.epoch-%d.gen-%d.ckpt", &w, &epoch, &gen); err == nil {
					held[epoch] = true
					newest = max(newest, epoch)
				}
			}
			if len(held) > 3 {
				t.Fatalf("worker %d holds snapshots of %d epochs (%v): want at most the two committed and one in flight", i, len(held), held)
			}
		}
		if newest >= epochs {
			break
		}
		if j.Done() || time.Now().After(deadline) {
			t.Fatalf("the job cut %d epochs, want %d", newest, epochs)
		}
	}
	release()
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}
