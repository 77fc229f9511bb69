package exp

import (
	"fmt"
	"text/tabwriter"
	"time"

	"gminer/internal/algo"
	"gminer/internal/baseline"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
)

// ---------------------------------------------------------------------------
// Figures 5 and 6: CPU / network / disk utilization timelines of the
// G-thinker-like engine vs G-Miner, running GM on friendster-s.

// Figure56Result carries both timelines and their average utilizations.
type Figure56Result struct {
	GThinker    []metrics.TimelinePoint
	GMiner      []metrics.TimelinePoint
	GThinkerCPU float64 // average CPU utilization over the run
	GMinerCPU   float64
	// StallFraction: fraction of sampled intervals with <10% compute — the
	// signature of a barrier-stalled engine (what Figure 5's troughs show).
	GThinkerStall float64
	GMinerStall   float64
}

func stallFraction(points []metrics.TimelinePoint) float64 {
	if len(points) == 0 {
		return 0
	}
	stalled := 0
	for _, p := range points {
		if p.CPUUtil < 0.10 {
			stalled++
		}
	}
	return float64(stalled) / float64(len(points))
}

// figure56Growth is how many times o.Scale's friendster-s Figures 5 and 6
// mine. A stall fraction is a share of 2 ms samples, so the G-Miner job must
// span tens of them; at o.Scale itself parent-major GM on the test scale
// finishes in a handful, and the fraction is noise.
const figure56Growth = 8

// Figure56 reproduces Figures 5 and 6 with pullingPattern, whose result it
// returns, and prints Figure 1's utilization and stalls after it.
func Figure56(o Options) (*Figure56Result, error) {
	o = o.defaults()
	g := buildLabeled(gen.Friendster, figure56Growth*o.Scale)
	res, err := figure56Run(o, g, pullingPattern())
	if err != nil {
		return nil, err
	}
	figure, err := figure56Run(o, g, algo.FigurePattern())
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(o.Out, "Figure 5/6: GM a(b,c(b,d(e))) on friendster-s — average CPU utilization: gthinker-like %s, g-miner %s\n",
		fmtPct(res.GThinkerCPU), fmtPct(res.GMinerCPU))
	fmt.Fprintf(o.Out, "stalled intervals (<10%% compute): gthinker-like %s, g-miner %s\n",
		fmtPct(res.GThinkerStall), fmtPct(res.GMinerStall))
	fmt.Fprintf(o.Out, "figure-1 pattern (pulls nothing): CPU gthinker-like %s, g-miner %s; stalled gthinker-like %s, g-miner %s\n",
		fmtPct(figure.GThinkerCPU), fmtPct(figure.GMinerCPU), fmtPct(figure.GThinkerStall), fmtPct(figure.GMinerStall))
	for _, tl := range []struct {
		name   string
		points []metrics.TimelinePoint
	}{{"gthinker-like", res.GThinker}, {"g-miner", res.GMiner}} {
		fmt.Fprintf(o.Out, "%s timeline (t, cpu%%, netB, diskB):\n", tl.name)
		for _, pt := range tl.points {
			fmt.Fprintf(o.Out, "  %8.1fms %6.1f%% %10d %10d\n",
				float64(pt.At)/float64(time.Millisecond), 100*pt.CPUUtil, pt.NetBytes, pt.DiskBytes)
		}
	}
	return res, nil
}

// figure56Run samples both engines' utilization while they match p on g.
func figure56Run(o Options, g *graph.Graph, p *algo.Pattern) (*Figure56Result, error) {
	res := &Figure56Result{}
	bcfg := blConfig(o, o.Workers, o.Threads)
	bcfg.SampleEvery = 2 * time.Millisecond
	_, bs, err := baseline.Batch{}.Run(g, algo.NewGraphMatch(p), bcfg)
	if err != nil {
		return nil, fmt.Errorf("figure56: batch engine: %w", err)
	}
	res.GThinkerCPU = bs.CPUUtil
	res.GThinker = bs.Timeline

	cfg := gmConfig(o, o.Workers, o.Threads)
	cfg.SampleEvery = 2 * time.Millisecond
	gres, cell := gminerRun(g, algo.NewGraphMatch(p), cfg, o.Timeout)
	if !cell.OK() {
		return nil, fmt.Errorf("figure56: g-miner run failed")
	}
	res.GMiner = gres.Timeline
	res.GMinerCPU = gres.Total.CPUUtil(gres.Elapsed, o.Workers*o.Threads)

	res.GThinkerStall = stallFraction(res.GThinker)
	res.GMinerStall = stallFraction(res.GMiner)
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 7: the COST of G-Miner — modeled time with 1..24 cores vs the
// single-threaded implementation; COST = min cores beating single-thread.

// Figure7Series is one (app, dataset) curve.
type Figure7Series struct {
	App        string
	Dataset    string
	SingleSecs float64
	Cores      []int
	ModelSecs  []float64
	COST       int // 0 if never beats single-thread in the range
}

// Figure7 reproduces the COST plot for TC and GM on skitter-s/orkut-s.
func Figure7(o Options) ([]Figure7Series, error) {
	o = o.defaults()
	cores := []int{1, 2, 4, 8, 12, 24}
	var out []Figure7Series
	for _, tc := range []bool{true, false} {
		for _, preset := range []gen.Preset{gen.Skitter, gen.Orkut} {
			var series Figure7Series
			series.Cores = cores
			series.Dataset = string(preset)
			if tc {
				series.App = "tc"
				g, err := gen.Build(preset, o.Scale)
				if err != nil {
					return nil, err
				}
				_, st, _ := baseline.Single{}.TC(g, blConfig(o, 1, 1))
				series.SingleSecs = st.Elapsed.Seconds()
				// One instrumented single-node run; the model scales it.
				cfg := gmConfig(o, 1, 1)
				cfg.Stealing = false
				res, cell := gminerRun(g, algo.NewTriangleCount(), cfg, o.Timeout)
				if !cell.OK() {
					return nil, fmt.Errorf("figure7: tc run failed on %s", preset)
				}
				for _, c := range cores {
					series.ModelSecs = append(series.ModelSecs, ModelElapsed(res, c).Seconds())
				}
			} else {
				series.App = "gm"
				g := buildLabeled(preset, o.Scale)
				// COST needs a single-threaded implementation of the SAME
				// computation: the task-style sequential driver. (The
				// bottom-up DP oracle is a different, asymptotically better
				// algorithm — against it no system wins at this scale; see
				// EXPERIMENTS.md.)
				st := time.Now()
				_ = algo.SeqRun(g, algo.NewGraphMatch(algo.FigurePattern()))
				series.SingleSecs = time.Since(st).Seconds()
				cfg := gmConfig(o, 1, 1)
				cfg.Stealing = false
				res, cell := gminerRun(g, algo.NewGraphMatch(algo.FigurePattern()), cfg, o.Timeout)
				if !cell.OK() {
					return nil, fmt.Errorf("figure7: gm run failed on %s", preset)
				}
				for _, c := range cores {
					series.ModelSecs = append(series.ModelSecs, ModelElapsed(res, c).Seconds())
				}
			}
			for i, c := range cores {
				if series.ModelSecs[i] < series.SingleSecs {
					series.COST = c
					break
				}
			}
			out = append(out, series)
		}
	}

	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 7: the COST of g-miner (modeled seconds per core count; * = single-thread)")
	fmt.Fprint(tw, "App\tDataset\tsingle*")
	for _, c := range cores {
		fmt.Fprintf(tw, "\t%dc", c)
	}
	fmt.Fprintln(tw, "\tCOST")
	for _, s := range out {
		fmt.Fprintf(tw, "%s\t%s\t%.3f", s.App, s.Dataset, s.SingleSecs)
		for _, m := range s.ModelSecs {
			fmt.Fprintf(tw, "\t%.3f", m)
		}
		fmt.Fprintf(tw, "\t%d\n", s.COST)
	}
	tw.Flush()
	return out, nil
}

// ---------------------------------------------------------------------------
// Figures 8 and 9: vertical and horizontal scalability on friendster-s.

// ScalabilitySeries is one app's modeled-time curve.
type ScalabilitySeries struct {
	App       string
	X         []int // cores (vertical) or workers (horizontal)
	ModelSecs []float64
}

// Figure8 reproduces vertical scalability: 15 workers, 1..24 threads each
// (modeled via ModelFromShares), for MCF and GM on friendster-s.
func Figure8(o Options) ([]ScalabilitySeries, error) {
	o = o.defaults()
	threads := []int{1, 2, 4, 8, 12, 24}
	workers := 15
	var out []ScalabilitySeries
	for _, app := range []string{"mcf", "gm"} {
		refBusy, err := referenceBusy(o, app)
		if err != nil {
			return nil, err
		}
		series := ScalabilitySeries{App: app, X: threads}
		res, err := runFriendster(o, app, workers, 1)
		if err != nil {
			return nil, err
		}
		for _, c := range threads {
			series.ModelSecs = append(series.ModelSecs, ModelFromShares(refBusy, res, c).Seconds())
		}
		out = append(out, series)
	}
	printScalability(o, "Figure 8: vertical scalability on friendster-s (15 workers, modeled)", "threads/worker", out)
	return out, nil
}

// referenceBusy measures the app's total compute on friendster-s with one
// worker and one thread (no oversubscription inflation).
func referenceBusy(o Options, app string) (time.Duration, error) {
	res, err := runFriendster(o, app, 1, 1)
	if err != nil {
		return 0, err
	}
	return sumBusy(res), nil
}

// Figure9 reproduces horizontal scalability: 10/15/20 workers, for MCF
// and GM on friendster-s. Each worker count is a real run (partitioning
// and load balance change). Two thread counts are modeled: at 4
// threads/worker the jobs are compute-bound and adding workers helps; at
// 24 the scaled-down jobs become communication-bound and extra workers
// stop paying — the flattening the paper observes at its own scale.
func Figure9(o Options) ([]ScalabilitySeries, error) {
	o = o.defaults()
	workerCounts := []int{10, 15, 20}
	var out []ScalabilitySeries
	for _, app := range []string{"mcf", "gm"} {
		refBusy, err := referenceBusy(o, app)
		if err != nil {
			return nil, err
		}
		s4 := ScalabilitySeries{App: app + "@4t", X: workerCounts}
		s24 := ScalabilitySeries{App: app + "@24t", X: workerCounts}
		for _, w := range workerCounts {
			res, err := runFriendster(o, app, w, 1)
			if err != nil {
				return nil, err
			}
			s4.ModelSecs = append(s4.ModelSecs, ModelFromShares(refBusy, res, 4).Seconds())
			s24.ModelSecs = append(s24.ModelSecs, ModelFromShares(refBusy, res, 24).Seconds())
		}
		out = append(out, s4, s24)
	}
	printScalability(o, "Figure 9: horizontal scalability on friendster-s (modeled)", "workers", out)
	return out, nil
}

func runFriendster(o Options, app string, workers, threads int) (*clusterRes, error) {
	cfg := gmConfig(o, workers, threads)
	switch app {
	case "mcf":
		g, err := gen.Build(gen.Friendster, o.Scale)
		if err != nil {
			return nil, err
		}
		res, cell := gminerRun(g, algo.NewMaxClique(), cfg, o.Timeout)
		if !cell.OK() {
			return nil, fmt.Errorf("mcf run failed (workers=%d)", workers)
		}
		return res, nil
	case "gm":
		g := buildLabeled(gen.Friendster, o.Scale)
		res, cell := gminerRun(g, algo.NewGraphMatch(algo.FigurePattern()), cfg, o.Timeout)
		if !cell.OK() {
			return nil, fmt.Errorf("gm run failed (workers=%d)", workers)
		}
		return res, nil
	}
	return nil, fmt.Errorf("unknown app %q", app)
}

func printScalability(o Options, title, xlabel string, series []ScalabilitySeries) {
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, title)
	fmt.Fprintf(tw, "App\t%s", xlabel)
	fmt.Fprintln(tw)
	for _, s := range series {
		fmt.Fprintf(tw, "%s", s.App)
		for i, x := range s.X {
			fmt.Fprintf(tw, "\t%d:%.3fs", x, s.ModelSecs[i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// ---------------------------------------------------------------------------
// Figure 10: scalability of the baseline systems (TC on skitter-s/orkut-s).

// Figure10Row is one engine × dataset × worker-count measurement.
type Figure10Row struct {
	Engine  string
	Dataset string
	Workers int
	Time    Cell
}

// Figure10 reproduces the baseline-scalability reference plot.
func Figure10(o Options) ([]Figure10Row, error) {
	o = o.defaults()
	workerCounts := []int{5, 10, 15, 20}
	var rows []Figure10Row
	for _, preset := range []gen.Preset{gen.Skitter, gen.Orkut} {
		g, err := gen.Build(preset, o.Scale)
		if err != nil {
			return nil, err
		}
		for _, w := range workerCounts {
			cfg := blConfig(o, w, o.Threads)
			_, s, errE := baseline.Embed{}.TC(g, cfg)
			rows = append(rows, Figure10Row{baseline.Embed{}.Name(), string(preset), w, cellFor(errE, s.Elapsed)})
			_, s, errG := baseline.BSP{}.TC(g, cfg)
			rows = append(rows, Figure10Row{baseline.BSP{}.Name(), string(preset), w, cellFor(errG, s.Elapsed)})
			_, s, errX := baseline.BSP{Dataflow: true}.TC(g, cfg)
			rows = append(rows, Figure10Row{baseline.BSP{Dataflow: true}.Name(), string(preset), w, cellFor(errX, s.Elapsed)})
			_, s, errB := baseline.Batch{}.Run(g, algo.NewTriangleCount(), cfg)
			rows = append(rows, Figure10Row{baseline.Batch{}.Name(), string(preset), w, cellFor(errB, s.Elapsed)})
		}
	}
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 10: scalability of baseline systems (TC)")
	fmt.Fprintln(tw, "Engine\tDataset\tWorkers\tTime(s)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", r.Engine, r.Dataset, r.Workers, r.Time)
	}
	tw.Flush()
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 11: BDG partitioning vs hash partitioning (MCF).

// Figure11Row compares the two partitioners on one dataset.
type Figure11Row struct {
	App           string
	Dataset       string
	Partitioner   string
	PartitionSecs float64
	JobSecs       float64
	MemGB         float64
	NetGB         float64
	EdgeCut       float64
	CacheHit      float64
}

// Figure11 reproduces the BDG ablation on orkut-s and friendster-s. The
// paper runs MCF; parallel branch-and-bound pruning makes MCF wall time
// noisy run-to-run (§3's own superlinear-speedup discussion), so the
// deterministic-work GM rows carry the cleaner signal and MCF rows are
// reported alongside with best-of-5 repetition.
func Figure11(o Options) ([]Figure11Row, error) {
	o = o.defaults()
	var rows []Figure11Row
	for _, preset := range []gen.Preset{gen.Orkut, gen.Friendster} {
		mcfG, err := gen.Build(preset, o.Scale)
		if err != nil {
			return nil, err
		}
		gmG := buildLabeled(preset, o.Scale)
		for _, part := range []partition.Partitioner{partition.Hash{}, partition.BDG{}} {
			cfg := gmConfig(o, o.Workers, o.Threads)
			cfg.Partitioner = part
			cfg.CacheCapacity = 256 // pulls must matter for locality to show

			gmRes, err := bestOf(3, func() (*clusterRes, error) {
				r, cell := gminerRun(gmG, algo.NewGraphMatch(algo.FigurePattern()), cfg, o.Timeout)
				if !cell.OK() {
					return nil, fmt.Errorf("figure11: gm %s/%s run failed", preset, part.Name())
				}
				return r, nil
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, figure11Row("gm", preset, part, gmRes))

			mcfRes, err := bestOf(5, func() (*clusterRes, error) {
				r, cell := gminerRun(mcfG, algo.NewMaxClique(), cfg, o.Timeout)
				if !cell.OK() {
					return nil, fmt.Errorf("figure11: mcf %s/%s run failed", preset, part.Name())
				}
				return r, nil
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, figure11Row("mcf", preset, part, mcfRes))
		}
	}
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Figure 11: BDG vs hash partitioning")
	fmt.Fprintln(tw, "App\tDataset\tPartitioner\tPartition(s)\tTime(s)\tMem(GB)\tNetwork(GB)\tEdge cut\tCache hit")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\t%.3f\t%.3f\t%.4f\t%.3f\t%s\n",
			r.App, r.Dataset, r.Partitioner, r.PartitionSecs, r.JobSecs, r.MemGB, r.NetGB, r.EdgeCut, fmtPct(r.CacheHit))
	}
	tw.Flush()
	return rows, nil
}

func figure11Row(app string, preset gen.Preset, part partition.Partitioner, res *clusterRes) Figure11Row {
	return Figure11Row{
		App:           app,
		Dataset:       string(preset),
		Partitioner:   part.Name(),
		PartitionSecs: res.PartitionTime.Seconds(),
		JobSecs:       res.Elapsed.Seconds(),
		MemGB:         gb(res.Total.PeakBytes),
		NetGB:         gb(res.Total.NetBytes),
		EdgeCut:       res.EdgeCut,
		CacheHit:      res.Total.CacheHitRate(),
	}
}

// ---------------------------------------------------------------------------
// Figure 12: the LSH-based task priority queue on/off.

// AblationRow is one (app, dataset, enabled/disabled) measurement shared
// by Figures 12 and 13.
type AblationRow struct {
	App       string
	Dataset   string
	Enabled   bool
	JobSecs   float64
	NetGB     float64
	HitRate   float64
	Stolen    int64
	ModelSecs float64
}

// Figure12 reproduces the LSH ablation: GM and MCF on orkut-s and
// friendster-s with the LSH priority queue enabled and disabled. GM runs
// Figure 1's pattern, which pulls nothing, and the printout says so.
func Figure12(o Options) ([]AblationRow, error) {
	o = o.defaults()
	var rows []AblationRow
	for _, app := range []string{"gm", "mcf"} {
		for _, preset := range []gen.Preset{gen.Orkut, gen.Friendster} {
			for _, enabled := range []bool{true, false} {
				cfg := gmConfig(o, o.Workers, o.Threads)
				cfg.UseLSH = enabled
				// Hash partitioning maximizes remote pulls, and the cache
				// must be small relative to the remote working set or any
				// ordering hits: the paper's graphs exceed memory, the
				// scaled-down ones must not fit the cache either.
				cfg.Partitioner = partition.Hash{}
				cfg.CacheCapacity = 256
				res, err := bestOf(3, func() (*clusterRes, error) {
					return runApp(o, app, preset, cfg)
				})
				if err != nil {
					return nil, err
				}
				rows = append(rows, AblationRow{
					App: app, Dataset: string(preset), Enabled: enabled,
					JobSecs:   res.Elapsed.Seconds(),
					NetGB:     gb(res.Total.NetBytes),
					HitRate:   res.Total.CacheHitRate(),
					ModelSecs: ModelElapsed(res, o.Threads).Seconds(),
				})
			}
		}
	}
	printAblation(o, "Figure 12: impact of the LSH-based task priority queue (En-LSH vs Dis-LSH)", "LSH", rows)
	fmt.Fprintln(o.Out, "gm rows: Figure 1's pattern pulls nothing (its c node's leaves are counted off the label-degree column), so LSH order has no pull to save there")
	return rows, nil
}

// Figure13 reproduces the task-stealing ablation on a skewed
// partitioning. Alongside the paper's GM/MCF runs it includes the
// calibrated-delay workload (delayCal): on a single-core host CPU-bound
// imbalance is hidden by the work-conserving OS scheduler, while
// calibrated sleeps keep the "busy worker" semantics and expose the
// load-balancing speedup directly in wall time.
func Figure13(o Options) ([]AblationRow, error) {
	o = o.defaults()
	var rows []AblationRow
	for _, preset := range []gen.Preset{gen.Orkut, gen.Friendster} {
		g, err := gen.Build(preset, o.Scale)
		if err != nil {
			return nil, err
		}
		for _, enabled := range []bool{true, false} {
			cfg := gmConfig(o, o.Workers, o.Threads)
			cfg.Stealing = enabled
			cfg.Partitioner = partition.Skewed{Bias: 0.7}
			workload := &delayCal{base: 100 * time.Microsecond, perNeighbor: 3 * time.Microsecond}
			res, err := bestOf(3, func() (*clusterRes, error) {
				r, cell := gminerRun(g, workload, cfg, o.Timeout)
				if !cell.OK() {
					return nil, fmt.Errorf("figure13: delay-cal on %s failed", preset)
				}
				return r, nil
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				App: "delay-cal", Dataset: string(preset), Enabled: enabled,
				JobSecs:   res.Elapsed.Seconds(),
				NetGB:     gb(res.Total.NetBytes),
				Stolen:    res.Total.Stolen,
				ModelSecs: ModelElapsed(res, o.Threads).Seconds(),
			})
		}
	}
	for _, app := range []string{"gm", "mcf"} {
		for _, preset := range []gen.Preset{gen.Orkut, gen.Friendster} {
			for _, enabled := range []bool{true, false} {
				cfg := gmConfig(o, o.Workers, o.Threads)
				cfg.Stealing = enabled
				// A skewed partitioning creates the imbalance stealing fixes.
				cfg.Partitioner = partition.Skewed{Bias: 0.55}
				res, err := bestOf(3, func() (*clusterRes, error) {
					return runApp(o, app, preset, cfg)
				})
				if err != nil {
					return nil, err
				}
				rows = append(rows, AblationRow{
					App: app, Dataset: string(preset), Enabled: enabled,
					JobSecs:   res.Elapsed.Seconds(),
					NetGB:     gb(res.Total.NetBytes),
					Stolen:    res.Total.Stolen,
					ModelSecs: ModelElapsed(res, o.Threads).Seconds(),
				})
			}
		}
	}
	printAblation(o, "Figure 13: impact of task stealing (En-Stealing vs Dis-Stealing, skewed partitions)", "stealing", rows)
	return rows, nil
}

// bestOf runs fn n times and keeps the run with the smallest elapsed
// time: single-machine scheduling noise is strictly additive, so the
// minimum is the cleanest estimator for the ablation comparisons.
func bestOf(n int, fn func() (*clusterRes, error)) (*clusterRes, error) {
	var best *clusterRes
	for i := 0; i < n; i++ {
		res, err := fn()
		if err != nil {
			return nil, err
		}
		if best == nil || res.Elapsed < best.Elapsed {
			best = res
		}
	}
	return best, nil
}

func runApp(o Options, app string, preset gen.Preset, cfg clusterConfig) (*clusterRes, error) {
	switch app {
	case "gm":
		g := buildLabeled(preset, o.Scale)
		res, cell := gminerRun(g, algo.NewGraphMatch(algo.FigurePattern()), cfg, o.Timeout)
		if !cell.OK() {
			return nil, fmt.Errorf("%s on %s failed", app, preset)
		}
		return res, nil
	case "mcf":
		g, err := gen.Build(preset, o.Scale)
		if err != nil {
			return nil, err
		}
		res, cell := gminerRun(g, algo.NewMaxClique(), cfg, o.Timeout)
		if !cell.OK() {
			return nil, fmt.Errorf("%s on %s failed", app, preset)
		}
		return res, nil
	}
	return nil, fmt.Errorf("unknown app %q", app)
}

func printAblation(o Options, title, knob string, rows []AblationRow) {
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, title)
	fmt.Fprintf(tw, "App\tDataset\t%s\tTime(s)\tModel(s)\tNet(GB)\tCache hit\tStolen\n", knob)
	for _, r := range rows {
		state := "off"
		if r.Enabled {
			state = "on"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\t%.3f\t%.4f\t%s\t%d\n",
			r.App, r.Dataset, state, r.JobSecs, r.ModelSecs, r.NetGB, fmtPct(r.HitRate), r.Stolen)
	}
	tw.Flush()
}
