// Command gminer-worker hosts one engine worker node of a multi-process
// G-Miner cluster. It loads the SAME graph as the coordinator (the join
// handshake fingerprints graph shape, worker count and partitioner and
// refuses mismatches), dials the coordinator, builds its partition-local
// vertex table, and serves every job the coordinator starts until either
// side exits.
//
//	gminerd       -preset dblp-s -workers 3 -cluster-listen 127.0.0.1:7070 &
//	gminer-worker -preset dblp-s -workers 3 -coordinator 127.0.0.1:7070 &   # x3
//
// A replacement for a crashed worker claims the dead process's slot and
// checkpoint directory explicitly:
//
//	gminer-worker ... -coordinator 127.0.0.1:7070 -node 1 -checkpoint-dir /data/ckpt/node-1
//
// SIGINT/SIGTERM drain the worker before it leaves: it asks the
// coordinator to barrier-checkpoint every live job it participates in,
// waits (up to -drain-timeout) for those epochs to commit, and only then
// detaches — so a rolling restart loses no progress and a replacement
// resumes from the drained epoch. If the drain times out the worker
// leaves anyway and the coordinator's failure detector takes over. The
// process also exits on its own when the coordinator goes away.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph file")
		format    = flag.String("format", "adj", "graph file format: adj (adjacency list) or edges (SNAP edge list)")
		preset    = flag.String("preset", "", "generated dataset preset (skitter-s, orkut-s, btc-s, friendster-s, tencent-s, dblp-s)")
		scale     = flag.Float64("scale", 1.0, "preset scale factor")

		workers  = flag.Int("workers", 4, "number of workers in the cluster (must match the coordinator)")
		threads  = flag.Int("threads", 4, "computing threads in this worker")
		part     = flag.String("partitioner", "bdg", "partitioner: bdg, hash, skewed, blocked (must match the coordinator)")
		lsh      = flag.Bool("lsh", true, "enable the LSH task priority queue")
		steal    = flag.Bool("steal", true, "enable task stealing")
		cacheCap = flag.Int("cache", 8192, "RCV cache capacity (vertices) per job")
		storeCap = flag.Int("store-mem", 8192, "in-memory task store capacity (tasks) per job")
		spillDir = flag.String("spill", "", "task-store spill directory; each job gets its own subdirectory")

		labels = flag.Int("labels", 7, "label alphabet assigned at startup when the graph is unlabeled (must match the coordinator)")

		coordinator  = flag.String("coordinator", "", "coordinator cluster address (its -cluster-listen) [required]")
		node         = flag.Int("node", -1, "worker slot to claim: -1 lets the coordinator assign one; an explicit index is how a replacement takes over a crashed worker's slot")
		listen       = flag.String("listen", "127.0.0.1:0", "this worker's TCP listen address")
		advertise    = flag.String("advertise", "", "address peers dial to reach this worker (default: the bound listen address)")
		ckptDir      = flag.String("checkpoint-dir", "", "snapshot directory for this worker's per-job checkpoint files; a replacement must reuse its predecessor's")
		joinTimeout  = flag.Duration("join-timeout", 30*time.Second, "join handshake budget, dial retries included")
		heartbeat    = flag.Duration("heartbeat-every", 250*time.Millisecond, "liveness report period")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain budget: how long to wait for a barrier checkpoint of live jobs to commit before detaching anyway")
	)
	flag.Parse()

	if *coordinator == "" {
		fatal(fmt.Errorf("need -coordinator (the gminerd -cluster-listen address)"))
	}

	g, err := loadGraph(*graphPath, *format, *preset, *scale)
	if err != nil {
		fatal(err)
	}
	// Mirror gminerd's startup preparation exactly: labels/attributes feed
	// the join fingerprint (and gm/cd task semantics), so a worker that
	// skipped them would be refused — or worse, silently diverge.
	jobspec.Prepare(g, jobspec.Spec{App: "gm", Labels: int32(*labels)}.Normalize())
	jobspec.Prepare(g, jobspec.Spec{App: "cd"}.Normalize())

	ccfg := cluster.Config{
		Workers:          *workers,
		Threads:          *threads,
		CacheCapacity:    *cacheCap,
		StoreMemCapacity: *storeCap,
		UseLSH:           *lsh,
		Stealing:         *steal,
		SpillDir:         *spillDir,
	}
	if ccfg.Partitioner, err = partition.ByName(*part); err != nil {
		fatal(err)
	}

	fmt.Printf("graph: %s\n", graph.ComputeStats(datasetName(*graphPath, *preset), g))
	wp, err := cluster.StartWorkerProcess(g, ccfg, cluster.WorkerOptions{
		Coordinator:    *coordinator,
		Node:           *node,
		Listen:         *listen,
		Advertise:      *advertise,
		CheckpointDir:  *ckptDir,
		JoinTimeout:    *joinTimeout,
		HeartbeatEvery: *heartbeat,
		Logf: func(format string, args ...any) {
			fmt.Printf("worker: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving: node %d of %d, listening on %s, coordinator %s\n",
		wp.Node(), *workers, wp.Addr(), *coordinator)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Printf("received %s: draining (barrier checkpoint, up to %s) before leaving\n", sig, *drainTimeout)
		if err := wp.Drain(*drainTimeout); err != nil {
			fmt.Printf("drain: %v (detaching anyway)\n", err)
		} else {
			fmt.Println("drain complete: checkpoints committed, detaching")
		}
	case <-wp.Done():
		fmt.Println("coordinator link closed: exiting")
	}
	wp.Close()
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
	fmt.Fprintln(os.Stderr, "gminer-worker:", err)
	os.Exit(1)
}
