// Command benchmark is the repository's performance instrument. One
// invocation runs one of five seeded workloads in a fresh process and
// prints, as the last line of its standard output, either the end-to-end
// metrics (-trace 0: tracing off) or the per-layer metrics (-trace 1: a
// separate traced run that climbs the kernel -> plan -> pipeline ->
// cluster -> TCP -> HTTP ladder on the workload's own input). README.md
// defines every metric; BENCHMARK.json at the repository root names them
// for the driver.
//
//	bash benchmark/run.sh --workload batch-tc-compute --seed 42 --seconds 12 --trace 0
//	bash benchmark/run.sh -sweep 10 -out A.json     # every workload, 10 seeds each
//	bash benchmark/run.sh -compare A.json B.json    # judge two sweeps by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// processStart approximates process start: package initialisation runs
// before main, so setup_s counts the whole road to the first timed
// operation.
var processStart = time.Now()

// metricDef names one metric and the unit it is reported in.
type metricDef struct{ name, unit string }

// endToEnd lists what a user of the system sees, measured with tracing
// off. Every workload reports all of them; README.md says what each one
// means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_latency_ms_p50", "ms"},
	{"job_latency_ms_p90", "ms"},
	{"epoch_apply_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emitter collects a run's metrics and holds them to the table: a name
// outside it, or a name set twice, is a bug in the benchmark.
type emitter struct {
	units map[string]string
	vals  map[string]float64
}

func newEmitter(defs []metricDef) *emitter {
	e := &emitter{units: map[string]string{}, vals: map[string]float64{}}
	for _, d := range defs {
		e.units[d.name] = d.unit
	}
	return e
}

func (e *emitter) set(name string, v float64) {
	if _, ok := e.units[name]; !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	if _, dup := e.vals[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	e.vals[name] = v
}

// setMedian sets a metric to the median of vals.
func (e *emitter) setMedian(name string, vals []float64) error {
	v, err := median(vals)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	e.set(name, v)
	return nil
}

// metrics returns every metric of the table. A traced run reports 0 for
// the metrics of layers its workload does not exercise (zeroFill); an
// end-to-end run must have set them all.
func (e *emitter) metrics(zeroFill bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(e.units))
	for name, unit := range e.units {
		v, ok := e.vals[name]
		if !ok && !zeroFill {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = metricValue{Value: v, Unit: unit}
	}
	return out, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 42, "the only source of randomness: graphs, labels, mutation stream, arrivals")
		seconds  = flag.Float64("seconds", 12, "length of the timed section")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes <workload>.json (Chrome trace)")
		sweep    = flag.Int("sweep", 0, "run every workload this many times, each with another seed, and write the values to -out")
		out      = flag.String("out", "", "sweep output file")
		compare  = flag.Bool("compare", false, "compare two sweep files: benchmark -compare A.json B.json")
		spec     = flag.String("benchmark-json", "BENCHMARK.json", "where -compare reads the bounds")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args(), *spec)
	case *sweep > 0:
		err = runSweep(*sweep, *seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *traced == 1, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload once and prints the result line. A result
// that fails the oracle is printed with "correct": false and turns into a
// non-zero exit.
func runOne(name string, seed int64, seconds float64, traced bool, traceDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	printHeader(w.name, seed, seconds, traced)
	d := time.Duration(seconds * float64(time.Second))
	var rep *report
	if traced {
		rep, err = runTraced(w, fullSizes, seed, filepath.Join(traceDir, w.name+".json"))
	} else {
		rep, err = runEndToEnd(w, fullSizes, seed, d)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or disagreed with the oracle", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

func printHeader(name string, seed int64, seconds float64, traced bool) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g traced=%t commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		name, seed, seconds, traced, commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// runEndToEnd is a run with tracing off: set up, measure for d, read the
// process's CPU and memory, check the outputs, then set up again a few
// more times so setup_s is a median and not one cold start.
func runEndToEnd(w workload, sz sizes, seed int64, d time.Duration) (*report, error) {
	inst, err := w.start(sz, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setups := []float64{time.Since(processStart).Seconds()}

	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	s := inst.measure(d)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	// Read before the oracle and the extra set-ups run, so the high-water
	// mark is the first set-up's and the timed section's.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	err = inst.verify(s)
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	for i := 1; i < sz.setups; i++ {
		// Hand the previous instance's memory back first, so every set-up
		// faults its pages in like the first one did.
		debug.FreeOSMemory()
		start := time.Now()
		again, err := w.start(sz, seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		again.close()
	}

	em := newEmitter(endToEnd)
	if err := emitEndToEnd(em, w, s, setups, cpu1-cpu0, rss); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	metrics, err := em.metrics(false)
	if err != nil {
		return nil, err
	}
	return &report{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}, nil
}

func emitEndToEnd(em *emitter, w workload, s *samples, setups []float64, cpu time.Duration, rss float64) error {
	fmt.Println(summarize("setup_s", "s", setups))
	fmt.Println(summarize("job_latency", "ms", s.jobMS))
	if err := em.setMedian("setup_s", setups); err != nil {
		return err
	}
	job, err := median(s.jobMS)
	if err != nil {
		return fmt.Errorf("no job completed: %w", err)
	}
	em.set("job_latency_ms_p50", job)

	// The driver wants every end-to-end metric from every workload. The
	// two that only one workload can measure repeat that workload's job
	// median elsewhere (README.md, "Stand-ins"): a closed loop of a few
	// dozen jobs cannot support a p90, and a static graph has no epochs.
	p90, apply := job, job
	if w.tail {
		if p90, err = percentile(s.jobMS, 90); err != nil {
			return fmt.Errorf("job latency: %w", err)
		}
	}
	if len(s.applyMS) > 0 {
		fmt.Println(summarize("epoch_apply", "ms", s.applyMS))
		if apply, err = median(s.applyMS); err != nil {
			return err
		}
	}
	cpuPerOp := float64(cpu.Nanoseconds()) / 1e6 / float64(s.attempted)
	em.set("job_latency_ms_p90", p90)
	em.set("epoch_apply_ms_p50", apply)
	em.set("cpu_ms_per_op", cpuPerOp)
	em.set("peak_rss_mb", rss)

	if len(s.lateMS) > 0 {
		fmt.Printf("open loop: arrivals sent=%d succeeded=%d failed=%d gen_late_ms_max=%.3f\n",
			len(s.lateMS), len(s.jobMS), s.failed, slices.Max(s.lateMS))
	}
	fmt.Printf("operations: attempted=%d failed=%d cpu_ms_per_op=%.3f peak_rss_mb=%.1f\n",
		s.attempted, s.failed, cpuPerOp, rss)
	return nil
}
