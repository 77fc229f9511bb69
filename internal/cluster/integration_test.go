package cluster_test

import (
	"testing"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
)

// TestDeterministicResults: with stealing disabled the record set is a
// pure function of (graph, algorithm, partitioning) — repeated runs agree
// exactly even though execution interleavings differ.
func TestDeterministicResults(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 3200, Seed: 307})
	qc := algo.NewQuasiClique(0.7, 4)
	cfg := smallConfig()
	cfg.Stealing = false
	first, err := cluster.Run(g, qc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := cluster.Run(g, qc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRecords(t, res.Records, first.Records)
	}
}

// TestMonitorSourceMethods checks the Job-side monitoring contract.
func TestMonitorSourceMethods(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 1000, Seed: 311})
	job, err := cluster.Start(g, algo.NewTriangleCount(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	snaps := job.WorkerSnapshots()
	if len(snaps) != 3 {
		t.Fatalf("snapshots: %d", len(snaps))
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if !job.Done() {
		t.Fatal("job should report done after Wait")
	}
}
