// Command gminerd is the long-lived G-Miner job server: it loads and
// BDG-partitions the graph once, keeps the cluster warm (worker vertex
// tables, transport, partition assignment), and serves concurrent mining
// jobs over HTTP/JSON.
//
//	gminerd -preset orkut-s -addr 127.0.0.1:7077 -max-jobs 3
//	curl -s -X POST localhost:7077/jobs -d '{"app":"tc"}'
//	curl -s localhost:7077/jobs/job-1
//	curl -s localhost:7077/jobs/job-1/result?format=text
//
// SIGINT/SIGTERM shut the daemon down gracefully: new submissions are
// refused, running jobs drain (checkpointing as configured), and the
// listen port is released so a restarted daemon can bind it immediately.
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
	"gminer/internal/partition"
	"gminer/internal/server"
)

func main() {
	var (
		loadGraph    = cli.GraphFlags(flag.CommandLine)
		engineConfig = cli.EngineFlags(flag.CommandLine)

		dynamic = flag.Bool("dynamic", false, "accept graph mutations (POST /graph/mutations) and standing queries; forces the blocked partitioner; single-process mode only")

		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint directory; each job gets its own subdirectory")
		ckptEvery = flag.Duration("checkpoint-every", 0, "default checkpoint interval for served jobs (0=off)")

		labels = flag.Int("labels", 7, "label alphabet assigned at startup when the graph is unlabeled (gm/fsm jobs)")

		clusterListen = flag.String("cluster-listen", "", "run as multi-process coordinator: TCP address worker processes dial (empty = single-process mode)")
		clusterAdv    = flag.String("cluster-advertise", "", "address advertised to worker processes (default: the bound cluster-listen address)")
		joinTimeout   = flag.Duration("join-timeout", 60*time.Second, "coordinator mode: how long to wait for all worker processes to join before serving")
		failTimeout   = flag.Duration("fail-timeout", 2*time.Second, "coordinator mode: silence after which a worker process is considered lost")
		resume        = flag.Bool("resume", false, "coordinator mode: rebuild held jobs from -checkpoint-dir JOBSPEC+MANIFEST files and resume them once all workers rejoin")

		addr         = flag.String("addr", "127.0.0.1:7077", "HTTP listen address")
		maxJobs      = flag.Int("max-jobs", 2, "maximum concurrently mining jobs")
		queueDepth   = flag.Int("queue-depth", 8, "admission queue depth (beyond it, submissions get 429 or shed queued work)")
		jobMem       = flag.Int64("job-mem", 0, "default per-job memory budget in bytes (0=unlimited)")
		jobBudget    = flag.Duration("job-budget", 0, "default per-job compute budget in busy-thread time (0=unlimited); over-budget jobs are preempted at a round boundary")
		resultCache  = flag.Int("result-cache", 256, "result cache entries (repeat queries answered without recompute; 0=disabled)")
		retain       = flag.Int("retain", 64, "finished jobs kept queryable before eviction")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown wait for running jobs before cancelling them")
	)
	flag.Parse()

	g, dataset, err := loadGraph()
	if err != nil {
		fatal(err)
	}

	// Prepare every annotation family ONCE, before the first job: the
	// resident graph is shared by concurrent jobs and must never be
	// mutated per job. The assignment parameters and seeds match the
	// single-shot CLI's defaults, which is what makes served results
	// byte-identical to `gminer -app ...` on the same input.
	cli.PrepareResident(g, *labels)

	ccfg, err := engineConfig()
	if err != nil {
		fatal(err)
	}
	ccfg.CheckpointDir, ccfg.CheckpointEvery = *ckptDir, *ckptEvery
	if *dynamic {
		// Mutations re-place only dirty blocks, which requires the
		// decomposable block partitioner. Silently upgrading bdg would
		// change results vs a static daemon, so say so.
		if *clusterListen != "" {
			fatal(fmt.Errorf("-dynamic requires single-process mode (the resident graph lives in this process)"))
		}
		if _, ok := ccfg.Partitioner.(partition.Blocked); !ok {
			fmt.Printf("dynamic: overriding -partitioner %s with blocked (incremental re-placement needs decomposable blocks)\n", ccfg.Partitioner.Name())
			ccfg.Partitioner = partition.Blocked{}
		}
		ccfg.Dynamic = true
	}

	fmt.Printf("graph: %s\n", graph.ComputeStats(dataset, g))
	var sess *cluster.Session
	if *clusterListen == "" {
		sess, err = cluster.NewSession(g, ccfg)
	} else {
		// Multi-process coordinator: the engine's workers live in separate
		// gminer-worker processes dialing in over TCP.
		ccfg.Resume, ccfg.FailTimeout = *resume, *failTimeout
		sess, err = cluster.NewRemoteSession(g, ccfg, cluster.RemoteSessionConfig{
			Listen:    *clusterListen,
			Advertise: *clusterAdv,
			Logf: func(format string, args ...any) {
				fmt.Printf("cluster: "+format+"\n", args...)
			},
		})
	}
	if err != nil {
		fatal(err)
	}
	if addr := sess.Addr(); addr != "" {
		fmt.Printf("coordinator: listening on %s for %d worker processes (fingerprint %x)\n",
			addr, ccfg.Workers, sess.Fingerprint())
	}
	// Serving waits until every worker slot has joined — a job launched into
	// a half-formed cluster would only stall against the failure detector.
	// Goroutine workers are ready at once.
	if err := sess.WaitReady(*joinTimeout); err != nil {
		fatal(err)
	}
	held := sess.HeldJobs()
	fmt.Printf("warm cluster: %d workers x %d threads, %s partitioning in %.3fs (edge cut %.1f%%)\n",
		ccfg.Workers, ccfg.Threads, ccfg.Partitioner.Name(), sess.PartitionTime().Seconds(), 100*sess.EdgeCut())

	cacheEntries := *resultCache
	if cacheEntries <= 0 {
		cacheEntries = -1 // registry treats negative as disabled, 0 as default
	}
	srv := server.New(sess, server.Config{
		MaxConcurrentJobs:     *maxJobs,
		MaxQueueDepth:         *queueDepth,
		DefaultMemBudgetBytes: *jobMem,
		DefaultBudgetSeconds:  jobBudget.Seconds(),
		ResultCacheEntries:    cacheEntries,
		MaxRetainedJobs:       *retain,
		DrainTimeout:          *drainTimeout,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving: http://%s (POST /jobs, GET /jobs/{id}, GET /jobs/{id}/result, DELETE /jobs/{id}, /healthz, /metrics)\n", bound)
	if *dynamic {
		fmt.Printf("dynamic: POST /graph/mutations, GET /jobs/{id}/deltas (standing queries) enabled\n")
	}

	// -resume: resubmit every held job under its original ID. The cluster
	// layer matches the ID to its JOBSPEC+MANIFEST directory and restores
	// from the highest epoch all rejoined workers still hold, so the job
	// continues instead of recomputing from scratch.
	for _, hj := range held {
		if err := srv.SubmitJob(server.JobRequest{
			Spec:                   hj.Spec,
			ID:                     hj.ID,
			CheckpointEverySeconds: hj.CheckpointEverySeconds,
		}); err != nil {
			fmt.Printf("resume: job %s not resubmitted: %v\n", hj.ID, err)
		} else {
			fmt.Printf("resume: job %s resubmitted from its checkpoint manifest\n", hj.ID)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	fmt.Printf("received %s: draining (up to %s) and shutting down\n", sig, *drainTimeout)
	srv.Shutdown()
	fmt.Println("shutdown complete, port released")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gminerd:", err)
	os.Exit(1)
}
