package main

import (
	"fmt"
	"math"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/plan"
	"gminer/internal/server"
	"gminer/internal/trace"
)

// The ladder runs the workload's own seeded job at seven depths of the
// stack, each through a layer's public functions, so the time a layer adds
// is the difference between two numbers measured from outside:
//
//	1 kernels   CountScratch over every DAG edge's row pair (tc inputs)
//	2 plan      the compiled plan on the CSR index, one thread
//	3 algo      the algorithm's sequential run
//	4 cluster   a session job on 1 worker x 1 thread
//	5 cluster   a session job on the workload's 2 workers
//	6 transport the same job with the workers behind loopback TCP
//	7 server    the same job submitted, polled and fetched over HTTP
//
// Rungs 1-4 are single-threaded and 5-7 share one parallelism. A self
// time is a rung minus the rung below, floored at zero; if the rungs nest
// as the layers do, each group's self times add up to its top rung, and
// the residue reports by how much they do not.

// maxReps caps a rung's repetitions; cheap rungs reach it long before
// their budget, and 25 medians are steady enough for rungs a millisecond
// apart to keep their order.
const maxReps = 25

// ladder carries the state the rungs share.
type ladder struct {
	w    workload
	sz   sizes
	g    *graph.Graph
	spec jobspec.Spec
	ref  *reference
	rec  *recorder
	em   *emitter
	root int // the ladder's root span

	attempted, failed int
}

// rung runs fn repeatedly — at least twice, then until the rung's time
// budget is spent or maxReps is reached — and returns the median duration
// in ms. Every repetition is a span under the ladder's root.
func (l *ladder) rung(name string, fn func(parent int) error) (float64, error) {
	var ms []float64
	for spent := time.Duration(0); len(ms) < 2 || (spent < l.sz.rungBudget && len(ms) < maxReps); {
		id := l.rec.begin(name, l.root, "")
		start := time.Now()
		err := fn(id)
		d := time.Since(start)
		l.rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		spent += d
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	fmt.Println(summarize(name, "ms", ms))
	return median(ms)
}

// check counts one job's output against the oracle.
func (l *ladder) check(aggregate any, records []string) {
	l.attempted++
	if !l.ref.agrees(l.spec.App, fmt.Sprint(aggregate), records) {
		l.failed++
	}
}

// sessionJob launches the ladder's job on a warm cluster and checks it.
func (l *ladder) sessionJob(sess launcher, tracer *trace.Tracer) (*cluster.Result, error) {
	a, err := jobspec.Build(l.g, l.spec)
	if err != nil {
		return nil, err
	}
	j, err := sess.Launch(a, cluster.JobOptions{Spec: &l.spec, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	res, err := j.Wait()
	if err != nil {
		return nil, err
	}
	l.check(res.AggGlobal, res.Records)
	return res, nil
}

// climb runs all seven rungs and emits the ladder's metrics.
func (l *ladder) climb() error {
	l.root = l.rec.begin("ladder "+l.w.name, -1, "")
	defer l.rec.end(l.root)
	em := l.em

	// Rung 1: the CSR index and the raw intersection kernel.
	var csr *kernels.CSR
	build, err := l.rung("kernels.csr_build", func(int) (err error) {
		csr, err = kernels.Build(l.g)
		return err
	})
	if err != nil {
		return err
	}
	em.set("kernels.csr_build_ms", build)
	em.set("kernels.csr_bytes", float64(csr.FootprintBytes()))
	intersect := 0.0
	if l.spec.App == "tc" {
		var calls, elems, common int64
		intersect, err = l.rung("kernels.intersect", func(int) error {
			calls, elems, common = intersectAll(csr)
			return nil
		})
		if err != nil {
			return err
		}
		// The pass computes the triangle count, so it is checked like a job.
		l.check(common, nil)
		em.set("kernels.intersect_calls", float64(calls))
		em.set("kernels.elems_scanned", float64(elems))
	}
	em.set("kernels.intersect_ms", intersect)

	// Rung 2: the compiled plan.
	var p *plan.Plan
	compileMS, err := l.rung("plan.compile", func(int) (err error) {
		p, err = compile(l.spec.App)
		return err
	})
	if err != nil {
		return err
	}
	exec, err := l.rung("plan.exec", func(int) error {
		n, err := execPlan(csr, p)
		l.check(n, nil)
		return err
	})
	if err != nil {
		return err
	}
	em.set("plan.compile_ms", compileMS)
	em.set("plan.exec_ms", exec)

	// Rung 3: the algorithm, sequentially.
	seq, err := l.rung("algo.seq", func(int) error {
		a, err := buildAlgo(l.g, l.spec.App, csr)
		if err != nil {
			return err
		}
		l.check(algo.SeqRun(l.g, a).AggGlobal, nil)
		return nil
	})
	if err != nil {
		return err
	}
	em.set("algo.seq_ms", seq)

	// Rung 4: one worker's task pipeline.
	cfg := l.w.config(l.sz)
	one := cfg
	one.Workers = 1
	w1, err := l.sessionRung("cluster.w1_job", one)
	if err != nil {
		return err
	}
	em.set("cluster.w1_job_ms", w1)

	// Rungs 5 and 7 share one session: the HTTP rung serves over the very
	// cluster rung 5 timed, so their difference is the serving layer's.
	sess, err := cluster.NewSession(l.g, cfg)
	if err != nil {
		return err
	}
	wk, err := l.rung("cluster.wk_job", func(int) error {
		_, err := l.sessionJob(sess, nil)
		return err
	})
	if err != nil {
		sess.Close()
		return err
	}
	em.set("cluster.wk_job_ms", wk)
	if err := l.tracedJobs(sess, wk); err != nil {
		sess.Close()
		return err
	}
	httpMS, err := l.httpRung(sess) // closes sess
	if err != nil {
		return err
	}
	em.set("server.http_job_ms", httpMS)

	// Rung 6: the same cluster with its workers behind loopback TCP. A
	// remote session has no mutation path, so the dynamic workload climbs
	// this rung on its static shape.
	remote := cfg
	remote.Dynamic = false
	rs, wps, err := remoteCluster(l.g, remote)
	if err != nil {
		return err
	}
	tcp, err := l.rung("transport.tcp_job", func(int) error {
		_, err := l.sessionJob(rs, nil)
		return err
	})
	closeRemote(rs, wps)
	if err != nil {
		return err
	}
	em.set("transport.tcp_job_ms", tcp)

	planSelf := floor0(exec - intersect)
	algoSelf := floor0(seq - exec)
	pipeSelf := floor0(w1 - seq)
	tcpSelf := floor0(tcp - wk)
	httpSelf := floor0(httpMS - wk)
	em.set("plan.self_ms", planSelf)
	em.set("algo.self_ms", algoSelf)
	em.set("cluster.pipeline_self_ms", pipeSelf)
	em.set("cluster.scale_eff", w1/(float64(cfg.Workers)*wk))
	em.set("transport.tcp_self_ms", tcpSelf)
	em.set("server.http_self_ms", httpSelf)
	serial := residue(w1, intersect+planSelf+algoSelf+pipeSelf)
	parallel := residue(tcp, wk+tcpSelf)
	if r := residue(httpMS, wk+httpSelf); r > parallel {
		parallel = r
	}
	em.set("ladder.serial_residue", serial)
	em.set("ladder.parallel_residue", parallel)
	fmt.Printf("ladder residue: serial (rungs 1-4) %.1f%%, parallel (rungs 5-7) %.1f%%\n", 100*serial, 100*parallel)
	return nil
}

func floor0(v float64) float64 { return math.Max(v, 0) }

// residue is the share of a group's top rung its self times fail to
// account for.
func residue(top, sum float64) float64 { return math.Abs(top-sum) / top }

// intersectAll runs the triangle plan's kernel work without the plan: for
// every edge r -> s of the degree-oriented DAG, |DagRow(r) ∩ DagRow(s)|.
// It returns the kernel calls made, the elements the operands held, and
// the total intersection size — the graph's triangle count.
func intersectAll(csr *kernels.CSR) (calls, elems, common int64) {
	sc := csr.GetScratch()
	defer csr.PutScratch(sc)
	for r := uint32(0); r < uint32(csr.N()); r++ {
		row := csr.DagRow(r)
		for _, s := range row {
			other := csr.DagRow(s)
			calls++
			elems += int64(len(row) + len(other))
			common += int64(kernels.CountScratch(sc, row, other))
		}
	}
	return calls, elems, common
}

func (l *ladder) sessionRung(name string, cfg cluster.Config) (float64, error) {
	sess, err := cluster.NewSession(l.g, cfg)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	return l.rung(name, func(int) error {
		_, err := l.sessionJob(sess, nil)
		return err
	})
}

// tracedJobs repeats rung 5 with the engine's tracer attached (histograms
// and event rings on). The slowdown against the untraced rung is the
// tracing overhead; the last job's public counters and phase histograms
// become the per-job metrics.
func (l *ladder) tracedJobs(sess *cluster.Session, untracedMS float64) error {
	var last *cluster.Result
	traced, err := l.rung("cluster.wk_job traced", func(int) (err error) {
		tracer := trace.New(sess.Config().Workers+1, 0).EnableEvents()
		last, err = l.sessionJob(sess, tracer)
		return err
	})
	if err != nil {
		return err
	}
	em, t := l.em, last.Total
	em.set("trace.overhead_frac", traced/untracedMS-1)
	em.set("cluster.tasks_done", float64(t.TasksDone))
	em.set("cluster.busy_ms", float64(t.Busy.Nanoseconds())/1e6)
	if t.Busy > 0 {
		em.set("cluster.wall_busy_ratio", float64(last.Elapsed)/float64(t.Busy))
	}
	em.set("cluster.peak_task_bytes", float64(t.PeakBytes))
	em.set("cluster.stolen", float64(t.Stolen))
	em.set("transport.net_bytes", float64(t.NetBytes))
	em.set("transport.net_msgs", float64(t.NetMsgs))
	em.set("cache.hits", float64(t.CacheHits))
	em.set("cache.misses", float64(t.CacheMisses))
	em.set("cache.hit_ratio", t.CacheHitRate())
	em.set("store.disk_write_bytes", float64(t.DiskWrite))
	em.set("store.disk_read_bytes", float64(t.DiskRead))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, ph := range last.Phases {
		switch ph.Metric {
		case trace.MetricTaskRound.String():
			em.set("cluster.task_round_us_p50", us(ph.P50))
			em.set("cluster.task_round_us_p95", us(ph.P95))
		case trace.MetricPullRTT.String():
			em.set("cluster.pull_rtt_us_p50", us(ph.P50))
			em.set("cluster.pull_rtt_us_p95", us(ph.P95))
		}
	}
	return nil
}

// httpRung serves the ladder's job over HTTP on top of sess: submit, poll
// the status every pollInterval, fetch the result. The result cache is
// off so that every repetition computes. It shuts the daemon, and sess
// with it, down when done. Its calls and its jobs' final statuses also
// give the serving layer's per-call timings and the QoS layer's queue
// wait and cost-estimate error (median |estimate - measured| / measured).
func (l *ladder) httpRung(sess *cluster.Session) (float64, error) {
	srv := server.New(sess, dynServeConfig)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		sess.Close()
		return 0, err
	}
	defer srv.Shutdown()
	cl := newClient(addr, l.rec)
	defer cl.close()
	var jobs []served
	ms, err := l.rung("server.http_job", func(parent int) error {
		out := cl.runJob(server.JobRequest{Spec: l.spec}, parent)
		if out.err != nil {
			return out.err
		}
		l.attempted++
		if !l.ref.agrees(l.spec.App, out.result.Aggregate, out.result.Records) {
			l.failed++
		}
		jobs = append(jobs, out)
		return nil
	})
	if err != nil {
		return 0, err
	}
	var waits, errs []float64
	for _, j := range jobs {
		waits = append(waits, j.status.QueueWaitSeconds*1e3)
		if cost := j.status.CostSeconds; cost > 0 {
			errs = append(errs, math.Abs(j.status.CostEstimateSeconds-cost)/cost)
		}
	}
	for _, m := range []struct {
		name string
		vals []float64
	}{
		{"server.submit_ms_p50", cl.callMS["server.submit"]},
		{"server.status_ms_p50", cl.callMS["server.status"]},
		{"server.result_ms_p50", cl.callMS["server.result"]},
		{"qos.queue_wait_ms_p50", waits},
		{"qos.estimate_err", errs},
	} {
		if err := l.em.setMedian(m.name, m.vals); err != nil {
			return 0, err
		}
	}
	return ms, nil
}
