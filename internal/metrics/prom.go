package metrics

import (
	"io"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"

	"gminer/internal/trace"
)

// Prom writes the Prometheus text exposition format (version 0.0.4): it
// opens a family with Family, then writes that family's samples with
// Float or Int. It owns the format's headers, label quoting and number
// formatting; no other code in the repository writes the format. Write
// errors are dropped: a scrape that breaks off mid-body has nobody left
// to report to, and the scraper sees the short body.
type Prom struct {
	w    io.Writer
	name string // the open family
}

// NewProm returns a writer over w.
func NewProm(w io.Writer) *Prom { return &Prom{w: w} }

// Family opens a family: its HELP and TYPE lines. typ is "counter",
// "gauge", "summary" or "histogram".
func (p *Prom) Family(name, typ, help string) *Prom {
	p.name = name
	_, _ = io.WriteString(p.w, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+typ+"\n")
	return p
}

// Float writes one sample of the open family, formatted 'g' with the
// shortest exact precision. suffix extends the family name ("_bucket",
// "_sum", "_count"; "" for the family's own series) and labels alternate
// label names and values.
func (p *Prom) Float(suffix string, v float64, labels ...string) {
	p.sample(suffix, strconv.FormatFloat(v, 'g', -1, 64), labels)
}

// Int writes one integer sample of the open family, like Float.
func (p *Prom) Int(suffix string, v int64, labels ...string) {
	p.sample(suffix, strconv.FormatInt(v, 10), labels)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (p *Prom) sample(suffix, v string, labels []string) {
	var b strings.Builder
	b.WriteString(p.name + suffix)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		b.WriteString(sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`)
		sep = ","
	}
	if sep == "," {
		b.WriteByte('}')
	}
	b.WriteString(" " + v + "\n")
	_, _ = io.WriteString(p.w, b.String())
}

// workerFamilies is the per-worker counter table, §5.1's progress table:
// the single-job monitor and the daemon both serve it.
var workerFamilies = [...]struct {
	name, typ, help string
	value           func(Snapshot) float64
}{
	{"gminer_busy_seconds_total", "counter", "Computing-thread busy time.", func(s Snapshot) float64 { return s.Busy.Seconds() }},
	{"gminer_net_bytes_total", "counter", "Payload bytes sent over the network.", func(s Snapshot) float64 { return float64(s.NetBytes) }},
	{"gminer_net_messages_total", "counter", "Messages sent over the network.", func(s Snapshot) float64 { return float64(s.NetMsgs) }},
	{"gminer_disk_read_bytes_total", "counter", "Task-store spill bytes read.", func(s Snapshot) float64 { return float64(s.DiskRead) }},
	{"gminer_disk_write_bytes_total", "counter", "Task-store spill bytes written.", func(s Snapshot) float64 { return float64(s.DiskWrite) }},
	{"gminer_tasks_done_total", "counter", "Completed (dead) tasks.", func(s Snapshot) float64 { return float64(s.TasksDone) }},
	{"gminer_results_total", "counter", "Emitted output records.", func(s Snapshot) float64 { return float64(s.Results) }},
	{"gminer_cache_hits_total", "counter", "RCV cache hits.", func(s Snapshot) float64 { return float64(s.CacheHits) }},
	{"gminer_cache_misses_total", "counter", "RCV cache misses.", func(s Snapshot) float64 { return float64(s.CacheMisses) }},
	{"gminer_cache_overflows_total", "counter", "RCV cache inserts past capacity (every cached vertex was referenced).", func(s Snapshot) float64 { return float64(s.CacheOverflows) }},
	{"gminer_tasks_stolen_total", "counter", "Tasks migrated by work stealing.", func(s Snapshot) float64 { return float64(s.Stolen) }},
	{"gminer_checkpoint_failures_total", "counter", "Checkpoint epochs a worker failed to snapshot or persist.", func(s Snapshot) float64 { return float64(s.CkptFails) }},
	{"gminer_live_bytes", "gauge", "Estimated live memory.", func(s Snapshot) float64 { return float64(s.LiveBytes) }},
	{"gminer_peak_bytes", "gauge", "Peak estimated live memory.", func(s Snapshot) float64 { return float64(s.PeakBytes) }},
}

// JobSnapshots is one job's per-worker snapshots. Job labels its series;
// empty leaves them with the worker label alone (the single-job monitor).
type JobSnapshots struct {
	Job     string
	Workers []Snapshot
}

// WriteWorkers writes the per-worker counter families, one series per
// (job, worker) pair.
func (p *Prom) WriteWorkers(jobs []JobSnapshots) {
	for _, f := range workerFamilies {
		p.Family(f.name, f.typ, f.help)
		for _, js := range jobs {
			for i, snap := range js.Workers {
				if js.Job == "" {
					p.Float("", f.value(snap), "worker", strconv.Itoa(i))
				} else {
					p.Float("", f.value(snap), "job", js.Job, "worker", strconv.Itoa(i))
				}
			}
		}
	}
}

// TenantStat is one tenant's QoS aggregate on the daemon's /metrics: its
// admission-queue depth, the queue wait of its jobs that have left the
// queue (dispatched, shed or cancelled), and its completed compute spend
// in busy thread-seconds.
type TenantStat struct {
	Tenant         string
	Queued         int
	WaitSumSeconds float64
	WaitCount      int64
	SpendSeconds   float64
}

// WriteTenants writes the per-tenant QoS families, stats sorted by tenant.
func (p *Prom) WriteTenants(stats []TenantStat) {
	p.Family("gminer_jobs_queued", "gauge", "Jobs waiting in the admission queue, per tenant.")
	for _, ts := range stats {
		p.Int("", int64(ts.Queued), "tenant", ts.Tenant)
	}
	p.Family("gminer_job_queue_wait_seconds", "summary", "Time jobs spent in the admission queue before dispatch, shed or cancel.")
	for _, ts := range stats {
		p.Float("_sum", ts.WaitSumSeconds, "tenant", ts.Tenant)
		p.Int("_count", ts.WaitCount, "tenant", ts.Tenant)
	}
	p.Family("gminer_tenant_spend_seconds_total", "counter", "Completed compute spend per tenant (busy thread-seconds).")
	for _, ts := range stats {
		p.Float("", ts.SpendSeconds, "tenant", ts.Tenant)
	}
}

// heapFamilies are the process heap families, each one runtime/metrics
// sample: two gauges, and two counters that make what the process
// allocates, and the collections that costs, a rate.
var heapFamilies = [...]struct{ sample, name, typ, help string }{
	{"/gc/heap/live:bytes", "gminer_heap_live_bytes", "gauge", "Heap bytes the last GC cycle marked live (0 before the first cycle)."},
	{"/gc/heap/goal:bytes", "gminer_heap_goal_bytes", "gauge", "Heap size at which the next GC cycle is due."},
	{"/gc/heap/allocs:bytes", "gminer_heap_allocs_bytes_total", "counter", "Bytes allocated on the heap since the process started."},
	{"/gc/cycles/total:gc-cycles", "gminer_gc_cycles_total", "counter", "GC cycles completed since the process started."},
}

// WriteHeap writes the process heap families. runtime/metrics reads them
// without stopping the world, so a scrape costs the process nothing.
func (p *Prom) WriteHeap() {
	var samples [len(heapFamilies)]rtmetrics.Sample
	for i, h := range heapFamilies {
		samples[i].Name = h.sample
	}
	rtmetrics.Read(samples[:])
	for i, h := range heapFamilies {
		var v uint64
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			v = samples[i].Value.Uint64()
		}
		p.Family(h.name, h.typ, h.help).Int("", int64(v))
	}
}

var traceHelp = [trace.NumMetrics]string{
	trace.MetricTaskRound:  "Latency of one task executor update round.",
	trace.MetricPullRTT:    "Request-to-response latency of one pulled vertex.",
	trace.MetricSpillIO:    "Latency of one task-store spill block write or load.",
	trace.MetricMigration:  "Thief-side task stealing latency (REQ sent to batch received).",
	trace.MetricCheckpoint: "Duration of one worker checkpoint (quiesce and dump).",
}

// WriteTracer writes the tracer's latency histograms (empty buckets left
// out; the cumulative counts stay right) and its event counters. A nil
// tracer writes nothing.
func (p *Prom) WriteTracer(t *trace.Tracer) {
	if t == nil {
		return
	}
	for m := trace.Metric(0); m < trace.NumMetrics; m++ {
		h := t.Histogram(m)
		p.Family("gminer_"+m.String()+"_seconds", "histogram", traceHelp[m])
		buckets := h.Buckets()
		var cum int64
		for b, n := range buckets {
			cum += n
			if n != 0 || b == len(buckets)-1 {
				_, hi := trace.BucketBounds(b)
				p.Int("_bucket", cum, "le", strconv.FormatFloat(float64(hi)/1e9, 'g', -1, 64))
			}
		}
		p.Int("_bucket", h.Count(), "le", "+Inf")
		p.Float("_sum", h.Sum().Seconds())
		p.Int("_count", h.Count())
	}
	p.Family("gminer_trace_events_total", "counter", "Pipeline events recorded by the tracer.")
	for typ := trace.EventType(1); typ < trace.NumEventTypes; typ++ {
		p.Int("", t.EventCount(typ), "event", typ.String())
	}
}
