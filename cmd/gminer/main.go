// Command gminer runs one graph mining application on the G-Miner runtime.
//
// Examples:
//
//	gminer -preset orkut-s -app tc
//	gminer -graph my.graph -app mcf -workers 8 -threads 4
//	gminer -preset skitter-s -app gm -labels 7
//	gminer -preset dblp-s -app cd -minsim 0.6 -minsize 4 -emit
//
// The input is either a text adjacency-list file (-graph) or a generated
// preset (-preset, optionally scaled with -scale).
//
// Against a running gminerd daemon, gminer is also the thin job client:
//
//	gminer submit -addr http://127.0.0.1:7077 -app tc -wait
//	gminer status -addr http://127.0.0.1:7077 job-1
//	gminer result -addr http://127.0.0.1:7077 -out tc.txt job-1
//	gminer cancel -addr http://127.0.0.1:7077 job-1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"gminer"
	"gminer/internal/algo"
	"gminer/internal/chaos"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/monitor"
	"gminer/internal/partition"
	"gminer/internal/trace"
)

func main() {
	// Subcommand form: thin client against a gminerd daemon. Anything
	// else falls through to the single-shot flag interface, which stays
	// byte-for-byte compatible.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit", "status", "result", "cancel", "mutate", "watch":
			runClient(os.Args[1], os.Args[2:])
			return
		}
	}

	var (
		graphPath = flag.String("graph", "", "input graph file")
		format    = flag.String("format", "adj", "graph file format: adj (adjacency list) or edges (SNAP edge list)")
		preset    = flag.String("preset", "", "generated dataset preset (skitter-s, orkut-s, btc-s, friendster-s, tencent-s, dblp-s)")
		scale     = flag.Float64("scale", 1.0, "preset scale factor")
		app       = flag.String("app", "tc", "application: tc, mcf, gm, cd, gc, gl3, qc, fsm")

		workers = flag.Int("workers", 4, "number of workers")
		threads = flag.Int("threads", 4, "computing threads per worker")
		part    = flag.String("partitioner", "bdg", "partitioner: bdg, hash, skewed, blocked")
		lsh     = flag.Bool("lsh", true, "enable the LSH task priority queue")
		steal   = flag.Bool("steal", true, "enable task stealing")
		useTCP  = flag.Bool("tcp", false, "run over loopback TCP instead of the in-process network")

		latency   = flag.Duration("latency", 0, "simulated network latency")
		bandwidth = flag.Int64("bandwidth", 0, "simulated network bandwidth (bytes/s, 0=unlimited)")
		spillDir  = flag.String("spill", "", "task-store spill directory (default: in-memory)")
		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint directory")
		ckptEvery = flag.Duration("checkpoint-every", 0, "checkpoint interval (0=off)")
		resume    = flag.Bool("resume", false, "resume the job from the newest committed checkpoint in -checkpoint-dir")
		cacheCap  = flag.Int("cache", 8192, "RCV cache capacity (vertices)")
		storeCap  = flag.Int("store-mem", 8192, "in-memory task store capacity (tasks)")

		labels  = flag.Int("labels", 7, "for gm on unlabeled inputs: assign labels from this alphabet")
		pattern = flag.String("pattern", "", "gm pattern as 'labels;parents', e.g. '0,1,2,1,3;-1,0,0,2,2' (default: Figure 1 pattern)")
		minSim  = flag.Float64("minsim", 0.6, "cd/gc attribute similarity threshold")
		minSize = flag.Int("minsize", 4, "cd/gc minimum community/cluster size")
		split   = flag.Int("split", 0, "mcf: recursive task split threshold (0=off)")
		generic = flag.Bool("generic", false, "force the generic exploration path (no compiled plans / intersection kernels)")

		chaosProfile = flag.String("chaos-profile", "", "fault-injection profile: default, heavy, or 'drop=0.05,delay=0.2,delaymax=2ms,crash=1@15ms' (empty=off)")
		chaosSeed    = flag.Uint64("chaos-seed", 1, "chaos RNG seed; same seed, same fault sequence")

		emit      = flag.Bool("emit", false, "print result records")
		outPath   = flag.String("out", "", "write result records (sorted, one per line) to this file")
		timeout   = flag.Duration("timeout", 0, "abort after this duration (0=none)")
		httpAddr  = flag.String("http", "", "serve live job status over HTTP on this address (e.g. 127.0.0.1:8080)")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON dump (load in Perfetto) to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the job (partitioning to last result; not graph loading) to this file")
	)
	flag.Parse()

	g, err := loadGraph(*graphPath, *format, *preset, *scale)
	if err != nil {
		fatal(err)
	}

	spec := jobspec.Spec{
		App:     *app,
		Labels:  int32(*labels),
		Pattern: *pattern,
		MinSim:  *minSim,
		MinSize: *minSize,
		Split:   *split,
		Generic: *generic,
	}.Normalize()
	jobspec.Prepare(g, spec)
	a, err := jobspec.Build(g, spec)
	if err != nil {
		fatal(err)
	}

	cfg := gminer.Config{
		Workers:          *workers,
		Threads:          *threads,
		CacheCapacity:    *cacheCap,
		StoreMemCapacity: *storeCap,
		UseLSH:           *lsh,
		Stealing:         *steal,
		UseTCP:           *useTCP,
		Latency:          *latency,
		BandwidthBps:     *bandwidth,
		SpillDir:         *spillDir,
		CheckpointDir:    *ckptDir,
		CheckpointEvery:  *ckptEvery,
		Resume:           *resume,
	}
	switch *part {
	case "bdg":
		cfg.Partitioner = partition.BDG{}
	case "hash":
		cfg.Partitioner = partition.Hash{}
	case "skewed":
		cfg.Partitioner = partition.Skewed{Bias: 0.6}
	case "blocked":
		cfg.Partitioner = partition.Blocked{}
	default:
		fatal(fmt.Errorf("unknown partitioner %q", *part))
	}

	var chaosCtl *chaos.Controller
	if *chaosProfile != "" {
		p, err := chaos.ParseProfile(*chaosProfile, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		if p.Active() {
			chaosCtl = chaos.New(p)
			cfg.Chaos = chaosCtl
		}
	}

	// Latency histograms are always on for the exit summary; full event
	// capture (ring buffers) only when a trace dump was requested.
	tracer := trace.New(cfg.Workers+1, 0).Enable()
	if *tracePath != "" {
		tracer.EnableEvents()
	}
	cfg.Tracer = tracer

	fmt.Printf("graph: %s\n", graph.ComputeStats(datasetName(*graphPath, *preset), g))
	fmt.Printf("running %s with %d workers x %d threads (%s partitioning, lsh=%v, stealing=%v)\n",
		a.Name(), cfg.Workers, cfg.Threads, *part, *lsh, *steal)
	if chaosCtl != nil {
		fmt.Printf("chaos:        profile %q, seed %d\n", *chaosProfile, *chaosSeed)
	}
	if *resume {
		fmt.Printf("resume:       from newest committed epoch in %s\n", *ckptDir)
	}

	stopProfile := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	job, err := gminer.Start(g, a, cfg)
	if err != nil {
		fatal(err)
	}
	if *httpAddr != "" {
		mon := monitor.New(job)
		mon.SetTracer(tracer)
		addr, err := mon.Start(*httpAddr)
		if err != nil {
			fatal(err)
		}
		defer mon.Stop()
		fmt.Printf("monitoring:   http://%s/status (metrics at /metrics)\n", addr)
	}
	if *timeout > 0 {
		go func() {
			time.Sleep(*timeout)
			job.Stop()
		}()
	}
	res, err := job.Wait()
	stopProfile()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("partitioning: %.3fs (edge cut %.1f%%)\n", res.PartitionTime.Seconds(), 100*res.EdgeCut)
	fmt.Printf("mining time:  %.3fs\n", res.Elapsed.Seconds())
	fmt.Printf("cpu util:     %.1f%%\n", 100*res.CPUUtil(cfg))
	fmt.Printf("tasks done:   %d (stolen %d)\n", res.Total.TasksDone, res.Total.Stolen)
	fmt.Printf("network:      %d msgs, %d bytes\n", res.Total.NetMsgs, res.Total.NetBytes)
	fmt.Printf("disk spill:   %d bytes written, %d read\n", res.Total.DiskWrite, res.Total.DiskRead)
	fmt.Printf("cache:        %.1f%% hit rate, %d inserts past capacity\n", 100*res.Total.CacheHitRate(), res.Total.CacheOverflows)
	if res.ResidentLists > 0 {
		fmt.Printf("resident:     %d forward lists on every worker, %d bytes a copy, %d as bit rows\n", res.ResidentLists, res.ResidentBytes, res.ResidentRows)
	}
	if res.LastCheckpointErr != nil {
		fmt.Printf("checkpoint:   %d failed attempts, last: %v\n", res.Total.CkptFails, res.LastCheckpointErr)
	}
	if chaosCtl != nil {
		fmt.Printf("chaos:        %s\n", chaosCtl.Stats())
	}
	if res.AggGlobal != nil {
		if pc, ok := res.AggGlobal.(algo.PatternCounts); ok {
			if fsm, ok2 := a.(*algo.FreqSubgraph); ok2 {
				freq := fsm.Frequent(pc)
				fmt.Printf("aggregate:    %d distinct patterns, %d frequent\n", len(pc), len(freq))
				for _, rec := range freq {
					fmt.Println("  " + rec)
				}
			}
		} else {
			fmt.Printf("aggregate:    %v\n", res.AggGlobal)
		}
	}
	fmt.Printf("records:      %d\n", len(res.Records))
	if len(res.Phases) > 0 {
		fmt.Printf("\npipeline latency (per phase):\n%s", trace.FormatSummary(res.Phases))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteChrome(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:        %s (load at https://ui.perfetto.dev)\n", *tracePath)
	}
	if *outPath != "" {
		var sb strings.Builder
		for _, r := range res.Records {
			sb.WriteString(r)
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(*outPath, []byte(sb.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("records file: %s\n", *outPath)
	}
	if *emit {
		for _, r := range res.Records {
			fmt.Println(r)
		}
	}
}

func loadGraph(path, format, preset string, scale float64) (*graph.Graph, error) {
	switch {
	case path != "":
		switch format {
		case "adj":
			return graph.LoadFile(path)
		case "edges":
			return graph.LoadEdgeListFile(path)
		default:
			return nil, fmt.Errorf("unknown format %q (want adj or edges)", format)
		}
	case preset != "":
		return gen.Build(gen.Preset(preset), scale)
	default:
		return nil, fmt.Errorf("need -graph or -preset")
	}
}

func datasetName(path, preset string) string {
	if path != "" {
		return path
	}
	return preset
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gminer:", err)
	os.Exit(1)
}
