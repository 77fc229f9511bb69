package cluster_test

import (
	"testing"
	"time"

	"gminer/internal/chaos"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/partition"
)

// chaosBaseline runs the same job fault-free and returns its sorted
// records. slowMark's output is deterministic, so the baseline is the
// ground truth the chaos runs must reproduce byte for byte.
func chaosBaseline(t *testing.T, cfg cluster.Config, seed int64) []string {
	t.Helper()
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: seed})
	res, err := cluster.Run(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Records
}

// TestChaosSoakLossyNetwork runs a real mining job through a network that
// drops, delays, duplicates and reorders messages (no crashes), with task
// stealing on. The result multiset must be byte-identical to the
// fault-free baseline and the job must terminate on its own.
func TestChaosSoakLossyNetwork(t *testing.T) {
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	// Faster pull retries keep the soak short: each dropped pull costs one
	// backoff interval before the retry path re-issues it.
	cluster.Tune(&cfg, cluster.Knobs{PullRetryBase: 10 * time.Millisecond})

	want := chaosBaseline(t, cfg, 61)

	profile := chaos.Profile{
		Seed:     0xc4a05,
		Drop:     0.05,
		Delay:    0.20,
		Dup:      0.03,
		Reorder:  0.05,
		DelayMin: 100 * time.Microsecond,
		DelayMax: 1500 * time.Microsecond,
	}
	ctl := chaos.New(profile)
	cfg.Chaos = ctl

	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 61})
	res, err := cluster.Run(g, &slowMark{delay: 100 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := ctl.Stats()
	if stats.Injected() == 0 {
		t.Fatalf("chaos injected nothing: %+v", stats)
	}
	if stats.Drops == 0 {
		t.Fatalf("soak never exercised the drop path: %+v", stats)
	}
	assertSameRecords(t, res.Records, want)
}

// TestChaosSoakWithWorkerCrash is the full §7 scenario: the default chaos
// profile (drops + delays + one worker crash mid-job) against a
// checkpointing cluster with failure detection. The crash is recovered by
// the failure detector; the job must terminate without intervention and
// emit exactly the baseline records.
func TestChaosSoakWithWorkerCrash(t *testing.T) {
	cfg := smallConfig()
	cfg.Partitioner = partition.Hash{}
	cfg.CheckpointEvery = 3 * time.Millisecond
	cfg.CheckpointDir = t.TempDir()
	cfg.FailTimeout = 10 * time.Millisecond
	cluster.Tune(&cfg, cluster.Knobs{PullRetryBase: 10 * time.Millisecond})
	// Stealing off: a migration in flight at kill time would be lost — the
	// same hole the paper's checkpoint protocol has (tasks migrated after
	// the victim's checkpoint are in nobody's snapshot).
	cfg.Stealing = false

	want := chaosBaseline(t, cfg, 67)

	ctl := chaos.New(chaos.Default(0xdef0))
	cfg.Chaos = ctl

	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 67})
	res, err := cluster.Run(g, &slowMark{delay: 150 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats := ctl.Stats(); stats.Injected() == 0 {
		t.Fatalf("chaos injected nothing: %+v", stats)
	}
	if res.Recovered == 0 {
		t.Fatal("crash window never recovered a worker")
	}
	assertSameRecords(t, res.Records, want)
}

// TestChaosSameSeedSameStats reruns the lossy soak with the same seed and
// expects the same injection decisions — the property that makes chaos
// failures reproducible from a CI log.
func TestChaosSameSeedSameStats(t *testing.T) {
	profile := chaos.Profile{
		Seed:     7,
		Drop:     0.04,
		Delay:    0.10,
		DelayMin: 50 * time.Microsecond,
		DelayMax: 500 * time.Microsecond,
	}
	run := func() chaos.Stats {
		cfg := smallConfig()
		cfg.Partitioner = partition.Hash{}
		cluster.Tune(&cfg, cluster.Knobs{PullRetryBase: 10 * time.Millisecond})
		ctl := chaos.New(profile)
		cfg.Chaos = ctl
		g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 1200, Seed: 71})
		if _, err := cluster.Run(g, &slowMark{delay: 50 * time.Microsecond}, cfg); err != nil {
			t.Fatal(err)
		}
		return ctl.Stats()
	}
	a, b := run(), run()
	// Scheduling differences change how many messages each run sends, so
	// exact equality is not guaranteed end-to-end; the per-message decision
	// sequence is, which shows up as both runs injecting faults of every
	// configured kind.
	if a.Injected() == 0 || b.Injected() == 0 {
		t.Fatalf("seeded runs injected nothing: %+v / %+v", a, b)
	}
	if (a.Drops == 0) != (b.Drops == 0) || (a.Delays == 0) != (b.Delays == 0) {
		t.Fatalf("same seed, different fault mix: %+v / %+v", a, b)
	}
}
