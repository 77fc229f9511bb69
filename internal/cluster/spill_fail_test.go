package cluster_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

// gatedPull seeds one task per vertex that asks for the vertex's
// neighbours, and holds every Update until gate closes: the executor stops,
// the retriever stops at the CPQ's high water, and eager seeding fills the
// task store past its capacity, so it spills.
type gatedPull struct {
	core.NoContext
	gate chan struct{}
}

func (*gatedPull) Name() string { return "gated-pull" }

func (*gatedPull) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	t := &core.Task{Cands: v.Adj}
	t.Subgraph.AddVertex(v.ID)
	spawn(t)
}

func (a *gatedPull) Update(*core.Task, []*graph.Vertex, core.Env) { <-a.gate }

// TestLostSpillBlockFailsJob: a task-store block whose file is gone when the
// retriever reads it back fails the job with an error naming the spill
// read — promptly, not by hanging in the store with its tasks still
// counted.
func TestLostSpillBlockFailsJob(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 97})
	cfg := smallConfig()
	cfg.Workers, cfg.Threads, cfg.Partitioner = 2, 1, partition.Hash{}
	cfg.StoreMemCapacity, cfg.StoreBlockCapacity = 8, 4
	cfg.SpillDir = t.TempDir()
	cluster.SeedEagerly(&cfg)
	a := &gatedPull{gate: make(chan struct{})}
	j, err := cluster.Start(g, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the spill to settle: seeding done, the retriever parked, the
	// same block files on three looks in a row.
	var blocks []string
	for deadline, same := time.Now().Add(30*time.Second), 0; same < 3; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			close(a.gate)
			t.Fatal("no task-store block spilled and stayed within 30 s")
		}
		now, _ := filepath.Glob(filepath.Join(cfg.SpillDir, "gminer-spill-*", "block-*.bin"))
		if len(now) > 0 && slices.Equal(now, blocks) {
			same++
		} else {
			same = 0
		}
		blocks = now
	}
	for _, b := range blocks {
		if err := os.Remove(b); err != nil {
			t.Fatal(err)
		}
	}
	close(a.gate)
	done := make(chan error, 1)
	go func() {
		_, err := j.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "spill read") {
			t.Fatalf("job ended with %v, want the failed spill read", err)
		}
	case <-time.After(30 * time.Second):
		j.Cancel()
		t.Fatal("the job did not end within 30 s of losing a spilled block")
	}
}
