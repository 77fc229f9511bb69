package main

import (
	"fmt"
	"slices"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/jobspec"
)

// perLayer lists the traced run's metrics; the prefix is the package under
// internal/ the number belongs to. A traced run reports all of them and
// reads 0 where its workload does not exercise the layer (README.md says
// which).
var perLayer = []metricDef{
	// Ladder rungs and the self times between them.
	{"kernels.intersect_ms", "ms"},
	{"kernels.intersect_calls", "count"},
	{"kernels.elems_scanned", "count"},
	{"kernels.csr_build_ms", "ms"},
	{"kernels.csr_bytes", "bytes"},
	{"plan.compile_ms", "ms"},
	{"plan.exec_ms", "ms"},
	{"plan.self_ms", "ms"},
	{"algo.seq_ms", "ms"},
	{"algo.self_ms", "ms"},
	{"cluster.w1_job_ms", "ms"},
	{"cluster.pipeline_self_ms", "ms"},
	{"cluster.wk_job_ms", "ms"},
	{"cluster.scale_eff", "ratio"},
	{"transport.tcp_job_ms", "ms"},
	{"transport.tcp_self_ms", "ms"},
	{"server.http_job_ms", "ms"},
	{"server.http_self_ms", "ms"},
	{"ladder.serial_residue", "ratio"},
	{"ladder.parallel_residue", "ratio"},
	// One traced job's public counters and phase histograms.
	{"cluster.tasks_done", "count"},
	{"cluster.busy_ms", "ms"},
	{"cluster.wall_busy_ratio", "ratio"},
	{"cluster.peak_task_bytes", "bytes"},
	{"cluster.stolen", "count"},
	{"cluster.task_round_us_p50", "us"},
	{"cluster.task_round_us_p95", "us"},
	{"cluster.pull_rtt_us_p50", "us"},
	{"cluster.pull_rtt_us_p95", "us"},
	{"transport.net_bytes", "bytes"},
	{"transport.net_msgs", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"store.disk_write_bytes", "bytes"},
	{"store.disk_read_bytes", "bytes"},
	{"trace.overhead_frac", "ratio"},
	// Layers timed in isolation.
	{"cache.acquire_ns", "ns"},
	{"cache.miss_insert_ns", "ns"},
	{"store.push_pop_ns", "ns"},
	{"wire.pull_resp_encode_ns", "ns"},
	{"wire.pull_resp_decode_ns", "ns"},
	{"wire.task_batch_encode_ns", "ns"},
	{"transport.local_rtt_us_p50", "us"},
	{"transport.remote_rtt_us_p50", "us"},
	{"transport.remote_mb_s", "MB/s"},
	{"partition.assign_ms", "ms"},
	{"partition.edge_cut", "ratio"},
	{"qos.push_pop_ns", "ns"},
	{"graph.gen_ms", "ms"},
	// Serving: the HTTP rung gives the first five on every workload,
	// serve-tiny-open's open-loop legs give the rest.
	{"server.submit_ms_p50", "ms"},
	{"server.status_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"qos.queue_wait_ms_p50", "ms"},
	{"qos.estimate_err", "ratio"},
	{"qos.queue_wait_ms_p90", "ms"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"server.job_latency_ms_p98", "ms"},
	{"server.slo_miss_frac", "ratio"},
	{"server.max_rate_meeting_slo", "1/s"},
	{"server.gen_late_ms_max", "ms"},
	// Dynamic graphs: dyn-standing-mix only.
	{"dyngraph.apply_ms_p50", "ms"},
	{"dyngraph.delta_round_ms_p50", "ms"},
	{"dyngraph.full_prepare_ms", "ms"},
	{"dyngraph.rebuilt_workers_mean", "count"},
	{"kernels.csr_rebuild_ms", "ms"},
}

// sloLimitMS is the serving latency limit: a rate meets the SLO when the
// p90 of its job latencies, failures counted as misses, stays under it.
const sloLimitMS = 40

// runTraced is the separate traced invocation: it climbs the ladder on
// the workload's input, times the layers in isolation, runs the workload's
// own probe if it has one, and writes every span as one Chrome trace.
func runTraced(w workload, sz sizes, seed int64, tracePath string) (*report, error) {
	rec := &recorder{}
	em := newEmitter(perLayer)

	start := time.Now()
	g := w.graph(sz, seed)
	em.set("graph.gen_ms", msSince(start))
	ref, err := newReference(g, w.app)
	if err != nil {
		return nil, err
	}
	l := &ladder{w: w, sz: sz, g: g, spec: jobspec.Spec{App: w.app}.Normalize(), ref: ref, rec: rec, em: em}
	if err := l.climb(); err != nil {
		return nil, fmt.Errorf("%s ladder: %w", w.name, err)
	}
	if err := isolatedLayers(em, rec, g, w.config(sz)); err != nil {
		return nil, fmt.Errorf("%s layers: %w", w.name, err)
	}
	attempted, failed := l.attempted, l.failed
	if w.probe != nil {
		s, err := w.probe(w, sz, seed, rec, em)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", w.name, err)
		}
		attempted += s.attempted
		failed += s.failed
	}

	if err := rec.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans in %s\n", len(rec.spans), tracePath)
	metrics, err := em.metrics(true)
	if err != nil {
		return nil, err
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// probeServing drives the daemon open loop in a traced run: one long leg
// at the workload's rate, sized so that p98 has ten samples beyond it,
// then one short leg per probed rate to find the highest rate that still
// meets the SLO.
func probeServing(w workload, sz sizes, seed int64, rec *recorder, em *emitter) (*samples, error) {
	inst, err := w.start(sz, seed, rec)
	if err != nil {
		return nil, err
	}
	sv := inst.(*serveInst)
	defer sv.close()

	leg := rec.begin(fmt.Sprintf("open loop %g/s", sz.rate), -1, "")
	total, got := sv.openLoop(arrivalPlan(sz.rate, sz.tailJobs, seed, 0), leg)
	rec.end(leg)
	sv.got = got
	if err := sv.verify(total); err != nil {
		return nil, err
	}
	fmt.Println(summarize(fmt.Sprintf("job_latency at %g/s", sz.rate), "ms", total.jobMS))
	p98, err := percentile(total.jobMS, 98)
	if err != nil {
		return nil, fmt.Errorf("job latency: %w", err)
	}
	em.set("server.job_latency_ms_p98", p98)
	em.set("server.slo_miss_frac", missFrac(total))
	em.set("server.gen_late_ms_max", slices.Max(total.lateMS))
	cached := 0
	var waits []float64
	for _, j := range got {
		if j.err == nil && j.status.Cached {
			cached++
		} else if j.err == nil {
			waits = append(waits, j.status.QueueWaitSeconds*1e3)
		}
	}
	em.set("server.result_cache_hit_ratio", float64(cached)/float64(len(got)))
	wait90, err := percentile(waits, 90)
	if err != nil {
		return nil, fmt.Errorf("queue wait: %w", err)
	}
	em.set("qos.queue_wait_ms_p90", wait90)

	best := 0.0
	for k, rate := range sz.sloRates {
		leg := rec.begin(fmt.Sprintf("open loop %g/s", rate), -1, "")
		s, _ := sv.openLoop(arrivalPlan(rate, int(rate*sz.sloSeconds), seed, k+1), leg)
		rec.end(leg)
		total.attempted += s.attempted
		total.failed += s.failed
		p90, err := percentile(s.jobMS, 90)
		meets := err == nil && s.failed == 0 && p90 <= sloLimitMS
		fmt.Printf("slo: %g jobs/s: %s failed=%d meets=%t\n", rate, summarize("job_latency", "ms", s.jobMS), s.failed, meets)
		if meets && rate > best {
			best = rate
		}
	}
	em.set("server.max_rate_meeting_slo", best)
	return total, nil
}

// missFrac is the share of arrivals that missed the SLO limit; a failed
// arrival misses it by definition.
func missFrac(s *samples) float64 {
	missed := s.attempted - len(s.jobMS)
	for _, ms := range s.jobMS {
		if ms > sloLimitMS {
			missed++
		}
	}
	return float64(missed) / float64(s.attempted)
}

// probeDynamic measures the write path in a traced run: epochs over HTTP
// for the standing delta rounds and the rebuilt-worker count, then
// mutation batches applied to the session directly, each followed by two
// jobs whose difference is the lazy CSR rebuild, then full from-scratch
// prepares of the same graph for comparison.
func probeDynamic(w workload, sz sizes, seed int64, rec *recorder, em *emitter) (*samples, error) {
	inst, err := w.start(sz, seed, rec)
	if err != nil {
		return nil, err
	}
	d := inst.(*dynInst)
	defer d.close()

	s := &samples{}
	var rounds []float64
	rebuilt := 0
	leg := rec.begin("epochs over HTTP", -1, "")
	for i := 0; i < sz.dynEpochs; i++ {
		ep, err := d.epoch(s, leg)
		if err != nil {
			return nil, err
		}
		d.epochs = append(d.epochs, ep)
		rounds = append(rounds, ep.roundMS)
		rebuilt += ep.rebuilt
	}
	rec.end(leg)
	if err := d.verify(s); err != nil {
		return nil, err
	}

	// From here the daemon's standing queries go stale: the batches bypass
	// it. Nothing reads them again.
	var applies, rebuilds []float64
	tc := &batchInst{g: d.sess.Graph(), spec: jobspec.Spec{App: "tc"}.Normalize(), sess: d.sess}
	leg = rec.begin("epochs applied directly", -1, "")
	for i := 0; i < sz.dynEpochs; i++ {
		var aerr error
		apply := rec.time("dyngraph.apply", leg, func() { _, aerr = d.sess.ApplyMutations(d.stream[d.next]) })
		if aerr != nil {
			return nil, aerr
		}
		d.next++
		var jerr error
		job := func() {
			if _, err := tc.run(cluster.JobOptions{}); err != nil {
				jerr = err
			}
		}
		first := rec.time("job after mutation", leg, job)
		steady := rec.time("job on a built CSR", leg, job)
		if jerr != nil {
			return nil, jerr
		}
		applies = append(applies, float64(apply.Nanoseconds())/1e6)
		rebuilds = append(rebuilds, float64((first-steady).Nanoseconds())/1e6)
	}
	rec.end(leg)

	var prepares []float64
	for i := 0; i < 3; i++ {
		fresh := w.graph(sz, seed)
		var perr error
		took := rec.time("dyngraph.full_prepare", -1, func() {
			sess, err := cluster.NewSession(fresh, w.config(sz))
			if err != nil {
				perr = err
				return
			}
			sess.Close()
		})
		if perr != nil {
			return nil, perr
		}
		prepares = append(prepares, float64(took.Nanoseconds())/1e6)
	}

	for _, m := range []struct {
		name string
		vals []float64
	}{
		{"dyngraph.apply_ms_p50", applies},
		{"dyngraph.delta_round_ms_p50", rounds},
		{"dyngraph.full_prepare_ms", prepares},
		{"kernels.csr_rebuild_ms", rebuilds},
	} {
		fmt.Println(summarize(m.name, "ms", m.vals))
		if err := em.setMedian(m.name, m.vals); err != nil {
			return nil, err
		}
	}
	em.set("dyngraph.rebuilt_workers_mean", float64(rebuilt)/float64(sz.dynEpochs))
	return s, nil
}
