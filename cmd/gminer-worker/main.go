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

	"gminer/internal/cli"
	"gminer/internal/cluster"
	"gminer/internal/graph"
)

func main() {
	var (
		loadGraph    = cli.GraphFlags(flag.CommandLine)
		engineConfig = cli.EngineFlags(flag.CommandLine)

		labels = flag.Int("labels", 7, "label alphabet assigned at startup when the graph is unlabeled (must match the coordinator)")

		coordinator  = flag.String("coordinator", "", "coordinator cluster address (its -cluster-listen) [required]")
		node         = flag.Int("node", -1, "worker slot to claim: -1 lets the coordinator assign one; an explicit index is how a replacement takes over a crashed worker's slot")
		listen       = flag.String("listen", "127.0.0.1:0", "this worker's TCP listen address")
		advertise    = flag.String("advertise", "", "address peers dial to reach this worker (default: the bound listen address)")
		ckptDir      = flag.String("checkpoint-dir", "", "snapshot directory for this worker's per-job checkpoint files; a replacement must reuse its predecessor's (empty: a temporary one per job start, so a killed worker restarts from scratch)")
		joinTimeout  = flag.Duration("join-timeout", 30*time.Second, "join handshake budget, dial retries included")
		heartbeat    = flag.Duration("heartbeat-every", 250*time.Millisecond, "liveness report period")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain budget: how long to wait for a barrier checkpoint of live jobs to commit before detaching anyway")
	)
	flag.Parse()

	if *coordinator == "" {
		fatal(fmt.Errorf("need -coordinator (the gminerd -cluster-listen address)"))
	}

	g, dataset, err := loadGraph()
	if err != nil {
		fatal(err)
	}
	cli.PrepareResident(g, *labels)

	ccfg, err := engineConfig()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("graph: %s\n", graph.ComputeStats(dataset, g))
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
		wp.Node(), ccfg.Workers, wp.Addr(), *coordinator)

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gminer-worker:", err)
	os.Exit(1)
}
