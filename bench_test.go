// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8). Each benchmark runs the corresponding experiment from
// internal/exp once per iteration at a reduced scale, so
//
//	go test -bench=. -benchmem
//
// sweeps the entire evaluation. For the full-scale numbers recorded in
// EXPERIMENTS.md, run `go run ./cmd/experiments` instead.
package gminer_test

import (
	"testing"
	"time"

	"gminer"
	"gminer/internal/algo"
	"gminer/internal/exp"
	"gminer/internal/gen"
	"gminer/internal/trace"
)

// benchOptions are reduced-scale settings so the full sweep stays in
// benchmark-friendly time.
func benchOptions() exp.Options {
	return exp.Options{
		Scale:     0.15,
		Timeout:   10 * time.Second,
		MemBudget: 32 << 20,
		Workers:   3,
		Threads:   2,
	}
}

func BenchmarkTable1MCFEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table2(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3TCMCF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table3(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4GM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table4(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5CDGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table5(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure56Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure56(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7COST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure7(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Vertical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure8(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Horizontal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure9(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure10(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11BDG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure11(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12LSH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure12(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13Stealing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure13(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out, on a single
// fixed workload (MCF on orkut-s) so flags compare like-for-like.

func benchRun(b *testing.B, mutate func(*gminer.Config)) {
	g := gen.MustBuild(gen.Orkut, 0.15)
	cfg := gminer.Config{Workers: 3, Threads: 2, UseLSH: true, Stealing: true}
	if mutate != nil {
		mutate(&cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gminer.Run(g, algo.NewMaxClique(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBaselineConfig(b *testing.B) {
	benchRun(b, nil)
}

func BenchmarkAblationNoLSH(b *testing.B) {
	benchRun(b, func(c *gminer.Config) { c.UseLSH = false })
}

func BenchmarkAblationNoStealing(b *testing.B) {
	benchRun(b, func(c *gminer.Config) { c.Stealing = false })
}

func BenchmarkAblationTaskSplitting(b *testing.B) {
	g := gen.MustBuild(gen.Orkut, 0.15)
	mc := algo.NewMaxClique()
	mc.SplitThreshold = 32
	cfg := gminer.Config{Workers: 3, Threads: 2, UseLSH: true, Stealing: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gminer.Run(g, mc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTinyStoreSpills(b *testing.B) {
	benchRun(b, func(c *gminer.Config) { c.StoreMemCapacity = 32 })
}

func BenchmarkAblationTCPTransport(b *testing.B) {
	benchRun(b, func(c *gminer.Config) { c.UseTCP = true })
}

// BenchmarkAblationProcessLayout compares the paper's two deployment
// modes (§5.1): one worker per node with many threads (process-level
// cache shared by all cores) vs many single-threaded workers (no cache
// sharing). Same total parallelism; the shared-cache layout should pull
// fewer vertices.
func BenchmarkAblationSharedCacheLayout(b *testing.B) {
	benchRun(b, func(c *gminer.Config) { c.Workers = 2; c.Threads = 4 })
}

func BenchmarkAblationPerCoreWorkers(b *testing.B) {
	benchRun(b, func(c *gminer.Config) { c.Workers = 8; c.Threads = 1 })
}

// Cache-capacity sweep: the RCV cache's effect on pull traffic.
func BenchmarkAblationCache64(b *testing.B) {
	benchRun(b, func(c *gminer.Config) { c.CacheCapacity = 64 })
}

func BenchmarkAblationCache4096(b *testing.B) {
	benchRun(b, func(c *gminer.Config) { c.CacheCapacity = 4096 })
}

// BenchmarkTraceOverhead quantifies what permanently compiled-in tracing
// costs on a TC run (the gate: a disabled tracer ≤ 3% overhead).
//
//	absent    — Config.Tracer nil: every probe is one nil check.
//	disabled  — tracer constructed but never enabled: one atomic load.
//	histogram — Enable(), a served job's and the CLI's: histogram samples
//	            and event counters, no ring events.
//	events    — EnableEvents(): full ring-buffer event capture.
func BenchmarkTraceOverhead(b *testing.B) {
	g := gen.MustBuild(gen.Orkut, 0.15)
	run := func(b *testing.B, mk func() *trace.Tracer) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := gminer.Config{Workers: 3, Threads: 2, UseLSH: true, Stealing: true}
			cfg.Tracer = mk()
			if _, err := gminer.Run(g, algo.NewTriangleCount(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("absent", func(b *testing.B) {
		run(b, func() *trace.Tracer { return nil })
	})
	b.Run("disabled", func(b *testing.B) {
		run(b, func() *trace.Tracer { return trace.New(4, 1024) })
	})
	b.Run("histograms", func(b *testing.B) {
		run(b, func() *trace.Tracer { return trace.New(4, 1024).Enable() })
	})
	b.Run("events", func(b *testing.B) {
		run(b, func() *trace.Tracer { return trace.New(4, 1024).EnableEvents() })
	})
}
