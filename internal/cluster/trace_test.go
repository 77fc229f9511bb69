package cluster_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/trace"
)

// TestTracedRunProducesPhasesAndEvents runs a real job with a fully
// enabled tracer and checks end-to-end wiring: the ring buffers see the
// task lifecycle, the histograms feed Result.Phases, and the Chrome dump
// of the run is loadable JSON.
func TestTracedRunProducesPhasesAndEvents(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 7})
	want := algo.RefTriangles(g)

	cfg := smallConfig()
	tr := trace.New(cfg.Workers+1, 4096).EnableEvents()
	cfg.Tracer = tr
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("tracing changed the answer: got %d want %d", got, want)
	}

	// Every vertex seeds one task; all of them must die.
	if n := tr.EventCount(trace.EvTaskSeed); n == 0 {
		t.Fatal("no task_seed events")
	}
	if seeds, deaths := tr.EventCount(trace.EvTaskSeed), tr.EventCount(trace.EvTaskDead); deaths != seeds {
		t.Fatalf("task_dead = %d, task_seed = %d (every task must complete)", deaths, seeds)
	}
	if tr.EventCount(trace.EvTaskReady) == 0 {
		t.Fatal("no task_ready events")
	}
	// A 3-worker run must pull remote candidates.
	if tr.EventCount(trace.EvPullIssued) == 0 || tr.EventCount(trace.EvPullAnswered) == 0 {
		t.Fatalf("pull events missing: issued=%d answered=%d",
			tr.EventCount(trace.EvPullIssued), tr.EventCount(trace.EvPullAnswered))
	}
	if tr.EventCount(trace.EvCacheHit)+tr.EventCount(trace.EvCacheMiss) == 0 {
		t.Fatal("no cache events")
	}

	if len(res.Phases) == 0 {
		t.Fatal("Result.Phases empty on a traced run")
	}
	byMetric := map[string]trace.PhaseSummary{}
	for _, p := range res.Phases {
		byMetric[p.Metric] = p
	}
	tr2, ok := byMetric["task_round"]
	if !ok {
		t.Fatalf("no task_round phase in %+v", res.Phases)
	}
	if tr2.Count == 0 || tr2.P99 < tr2.P50 || tr2.Component != "executor" {
		t.Fatalf("task_round summary: %+v", tr2)
	}
	if _, ok := byMetric["pull_rtt"]; !ok {
		t.Fatalf("no pull_rtt phase in %+v", res.Phases)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("run trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("run trace has no events")
	}
}

// TestUntracedRunHasNoPhases checks the nil-tracer default stays inert:
// no phases on the result and identical answers.
func TestUntracedRunHasNoPhases(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 3})
	res, err := cluster.Run(g, algo.NewTriangleCount(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != nil {
		t.Fatalf("untraced run has phases: %+v", res.Phases)
	}
}

// TestHistogramOnlyRunKeepsNoEvents: the tracer a served job gets (Enable,
// never EnableEvents) feeds Result.Phases through a whole job without its
// event rings ever being allocated.
func TestHistogramOnlyRunKeepsNoEvents(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2000, Seed: 3})
	cfg := smallConfig()
	cfg.Tracer = trace.New(cfg.Workers+1, 0).Enable()
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 || cfg.Tracer.EventCount(trace.EvTaskDead) == 0 {
		t.Fatal("histograms and event counters must record")
	}
	if evs := cfg.Tracer.Events(); evs != nil {
		t.Fatalf("histogram-only run buffered %d events", len(evs))
	}
}

// TestTracedStealAndCheckpoint exercises the steal and checkpoint
// instrumentation paths under an event-recording tracer.
func TestTracedStealAndCheckpoint(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: 21})
	cfg := smallConfig()
	cfg.Stealing = true
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 5 * 1e6 // 5ms
	tr := trace.New(cfg.Workers+1, 4096).EnableEvents()
	cfg.Tracer = tr
	want := algo.RefTriangles(g)
	res, err := cluster.Run(g, algo.NewTriangleCount(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AggGlobal.(int64); got != want {
		t.Fatalf("got %d want %d", got, want)
	}
	// Checkpoints fire on a 5ms interval, so at least one epoch completes
	// on all but the fastest runs; begin/end must pair if any fired.
	begins, ends := tr.EventCount(trace.EvCheckpointBegin), tr.EventCount(trace.EvCheckpointEnd)
	if begins != ends {
		t.Fatalf("checkpoint begin=%d end=%d", begins, ends)
	}
}
