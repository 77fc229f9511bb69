// Package monitor exposes a running job's progress over HTTP — the
// operational view a cluster operator would have of the master's progress
// table (§5.1's progress collector made visible). It serves JSON
// snapshots of per-worker counters plus a plain-text summary, suitable
// for curl, dashboards or scrapers.
package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"time"

	"gminer/internal/metrics"
	"gminer/internal/trace"
)

// Source is what the monitor samples: per-worker counters and job
// metadata. cluster.Job satisfies this via a small adapter (see Attach).
type Source interface {
	// WorkerSnapshots returns one snapshot per worker.
	WorkerSnapshots() []metrics.Snapshot
	// Done reports whether the job has terminated.
	Done() bool
}

// Status is the JSON document served at /status.
type Status struct {
	Uptime  string         `json:"uptime"`
	Done    bool           `json:"done"`
	Workers []WorkerStatus `json:"workers"`
	Totals  WorkerStatus   `json:"totals"`
}

// WorkerStatus is one worker's externally visible state.
type WorkerStatus struct {
	Worker      int     `json:"worker"`
	BusySeconds float64 `json:"busy_seconds"`
	NetBytes    int64   `json:"net_bytes"`
	DiskBytes   int64   `json:"disk_bytes"`
	TasksDone   int64   `json:"tasks_done"`
	Results     int64   `json:"results"`
	CacheHit    float64 `json:"cache_hit_rate"`
	Stolen      int64   `json:"tasks_stolen"`
}

// Server serves job status over HTTP.
type Server struct {
	src    Source
	tracer *trace.Tracer // optional; adds histograms to /metrics
	start  time.Time

	mu  sync.Mutex
	srv *http.Server
	ln  net.Listener
}

// New creates a monitor server over src.
func New(src Source) *Server {
	return &Server{src: src, start: time.Now()}
}

// SetTracer attaches a tracer whose latency histograms and event counters
// are appended to the /metrics exposition. Call before Start.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Stop.
// Returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/", s.handleText)
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	s.srv = srv
	s.ln = ln
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Stop shuts the server down.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		_ = s.srv.Close()
		s.srv = nil
	}
}

func (s *Server) status() Status {
	snaps := s.src.WorkerSnapshots()
	st := Status{
		Uptime: time.Since(s.start).Round(time.Millisecond).String(),
		Done:   s.src.Done(),
	}
	var total metrics.Snapshot
	for i, snap := range snaps {
		st.Workers = append(st.Workers, workerStatus(i, snap))
		total = total.Add(snap)
	}
	st.Totals = workerStatus(-1, total)
	return st
}

func workerStatus(i int, s metrics.Snapshot) WorkerStatus {
	return WorkerStatus{
		Worker:      i,
		BusySeconds: s.Busy.Seconds(),
		NetBytes:    s.NetBytes,
		DiskBytes:   s.DiskRead + s.DiskWrite,
		TasksDone:   s.TasksDone,
		Results:     s.Results,
		CacheHit:    s.CacheHitRate(),
		Stolen:      s.Stolen,
	}
}

// promCounter describes one per-worker counter family on /metrics.
type promCounter struct {
	name  string
	help  string
	typ   string // "counter" or "gauge"
	value func(metrics.Snapshot) float64
}

var promCounters = []promCounter{
	{"gminer_busy_seconds_total", "Computing-thread busy time.", "counter",
		func(s metrics.Snapshot) float64 { return s.Busy.Seconds() }},
	{"gminer_net_bytes_total", "Payload bytes sent over the network.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.NetBytes) }},
	{"gminer_net_messages_total", "Messages sent over the network.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.NetMsgs) }},
	{"gminer_disk_read_bytes_total", "Task-store spill bytes read.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.DiskRead) }},
	{"gminer_disk_write_bytes_total", "Task-store spill bytes written.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.DiskWrite) }},
	{"gminer_tasks_done_total", "Completed (dead) tasks.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.TasksDone) }},
	{"gminer_results_total", "Emitted output records.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.Results) }},
	{"gminer_cache_hits_total", "RCV cache hits.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.CacheHits) }},
	{"gminer_cache_misses_total", "RCV cache misses.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.CacheMisses) }},
	{"gminer_cache_overflows_total", "RCV cache inserts past capacity (every cached vertex was referenced).", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.CacheOverflows) }},
	{"gminer_tasks_stolen_total", "Tasks migrated by work stealing.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.Stolen) }},
	{"gminer_checkpoint_failures_total", "Checkpoint epochs a worker failed to snapshot or persist.", "counter",
		func(s metrics.Snapshot) float64 { return float64(s.CkptFails) }},
	{"gminer_live_bytes", "Estimated live memory.", "gauge",
		func(s metrics.Snapshot) float64 { return float64(s.LiveBytes) }},
	{"gminer_peak_bytes", "Peak estimated live memory.", "gauge",
		func(s metrics.Snapshot) float64 { return float64(s.PeakBytes) }},
}

// JobSnapshots labels one job's per-worker snapshots for a multi-job
// Prometheus exposition (the gminerd daemon serves many jobs from one
// /metrics endpoint).
type JobSnapshots struct {
	// Job is the job-scoped ID; empty emits plain single-job series with
	// no job label, which keeps the single-shot CLI exposition unchanged.
	Job     string
	Workers []metrics.Snapshot
}

// WriteProm writes the standard gminer counter families for the given
// jobs, one series per (job, worker) pair. The single-job monitor and the
// multi-job daemon share this table, so serving mode exposes exactly the
// metric names dashboards already scrape, with an extra job label.
func WriteProm(w io.Writer, jobs []JobSnapshots) {
	for _, c := range promCounters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", c.name, c.help, c.name, c.typ)
		for _, js := range jobs {
			for i, snap := range js.Workers {
				if js.Job == "" {
					fmt.Fprintf(w, "%s{worker=\"%d\"} %s\n", c.name, i,
						strconv.FormatFloat(c.value(snap), 'g', -1, 64))
				} else {
					fmt.Fprintf(w, "%s{job=%q,worker=\"%d\"} %s\n", c.name, js.Job, i,
						strconv.FormatFloat(c.value(snap), 'g', -1, 64))
				}
			}
		}
	}
}

// TenantStat is one tenant's QoS aggregate for the daemon's multi-tenant
// /metrics exposition: admission-queue depth, queue-wait summary and
// completed compute spend.
type TenantStat struct {
	Tenant string
	// Queued is the tenant's current admission-queue depth.
	Queued int
	// WaitSumSeconds / WaitCount summarize the queue wait of every job of
	// this tenant that has left the queue (dispatched, shed or cancelled).
	WaitSumSeconds float64
	WaitCount      int64
	// SpendSeconds is the tenant's completed compute spend (busy
	// thread-seconds summed over workers, over all its finished jobs).
	SpendSeconds float64
}

// WriteTenantProm writes the per-tenant QoS families. Callers pass the
// stats sorted by tenant so the exposition is deterministic.
func WriteTenantProm(w io.Writer, stats []TenantStat) {
	fmt.Fprintf(w, "# HELP gminer_jobs_queued Jobs waiting in the admission queue, per tenant.\n# TYPE gminer_jobs_queued gauge\n")
	for _, ts := range stats {
		fmt.Fprintf(w, "gminer_jobs_queued{tenant=%q} %d\n", ts.Tenant, ts.Queued)
	}
	fmt.Fprintf(w, "# HELP gminer_job_queue_wait_seconds Time jobs spent in the admission queue before dispatch, shed or cancel.\n# TYPE gminer_job_queue_wait_seconds summary\n")
	for _, ts := range stats {
		fmt.Fprintf(w, "gminer_job_queue_wait_seconds_sum{tenant=%q} %s\n", ts.Tenant,
			strconv.FormatFloat(ts.WaitSumSeconds, 'g', -1, 64))
		fmt.Fprintf(w, "gminer_job_queue_wait_seconds_count{tenant=%q} %d\n", ts.Tenant, ts.WaitCount)
	}
	fmt.Fprintf(w, "# HELP gminer_tenant_spend_seconds_total Completed compute spend per tenant (busy thread-seconds).\n# TYPE gminer_tenant_spend_seconds_total counter\n")
	for _, ts := range stats {
		fmt.Fprintf(w, "gminer_tenant_spend_seconds_total{tenant=%q} %s\n", ts.Tenant,
			strconv.FormatFloat(ts.SpendSeconds, 'g', -1, 64))
	}
}

// heapFamilies are the process heap families, each read from one
// runtime/metrics sample: two gauges, and two counters that make what the
// process allocates, and the collections that costs, a rate.
var heapFamilies = [...]struct{ sample, name, kind, help string }{
	{"/gc/heap/live:bytes", "gminer_heap_live_bytes", "gauge", "Heap bytes the last GC cycle marked live (0 before the first cycle)."},
	{"/gc/heap/goal:bytes", "gminer_heap_goal_bytes", "gauge", "Heap size at which the next GC cycle is due."},
	{"/gc/heap/allocs:bytes", "gminer_heap_allocs_bytes_total", "counter", "Bytes allocated on the heap since the process started."},
	{"/gc/cycles/total:gc-cycles", "gminer_gc_cycles_total", "counter", "GC cycles completed since the process started."},
}

// WriteHeapProm writes the process's heap families. runtime/metrics reads
// them without stopping the world, so a scrape costs the process nothing.
func WriteHeapProm(w io.Writer) {
	samples := make([]rtmetrics.Sample, len(heapFamilies))
	for i, h := range heapFamilies {
		samples[i].Name = h.sample
	}
	rtmetrics.Read(samples)
	for i, h := range heapFamilies {
		var v uint64
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			v = samples[i].Value.Uint64()
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", h.name, h.help, h.name, h.kind, h.name, v)
	}
}

// handleMetrics serves the Prometheus text exposition: per-worker counter
// families from the progress table, the process heap, plus the tracer's
// latency histograms and event counters when a tracer is attached.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) writeMetrics(w io.Writer) {
	WriteProm(w, []JobSnapshots{{Workers: s.src.WorkerSnapshots()}})
	done := 0.0
	if s.src.Done() {
		done = 1
	}
	fmt.Fprintf(w, "# HELP gminer_job_done Whether the job has terminated.\n# TYPE gminer_job_done gauge\ngminer_job_done %g\n", done)
	fmt.Fprintf(w, "# HELP gminer_uptime_seconds Time since the monitor started.\n# TYPE gminer_uptime_seconds gauge\ngminer_uptime_seconds %s\n",
		strconv.FormatFloat(time.Since(s.start).Seconds(), 'g', -1, 64))
	WriteHeapProm(w)
	if s.tracer != nil {
		_ = s.tracer.WritePrometheus(w)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.status())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.src.Done() {
		fmt.Fprintln(w, "done")
		return
	}
	fmt.Fprintln(w, "running")
}

func (s *Server) handleText(w http.ResponseWriter, r *http.Request) {
	st := s.status()
	fmt.Fprintf(w, "gminer job — uptime %s done=%v\n", st.Uptime, st.Done)
	fmt.Fprintf(w, "%-8s %12s %12s %12s %10s %8s\n",
		"worker", "busy(s)", "net(B)", "tasks", "results", "stolen")
	for _, ws := range st.Workers {
		fmt.Fprintf(w, "%-8d %12.3f %12d %12d %10d %8d\n",
			ws.Worker, ws.BusySeconds, ws.NetBytes, ws.TasksDone, ws.Results, ws.Stolen)
	}
	t := st.Totals
	fmt.Fprintf(w, "%-8s %12.3f %12d %12d %10d %8d\n",
		"total", t.BusySeconds, t.NetBytes, t.TasksDone, t.Results, t.Stolen)
}
