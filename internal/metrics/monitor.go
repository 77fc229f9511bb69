package metrics

// The single-job monitor exposes a running job's progress over HTTP — the
// operational view a cluster operator would have of the master's progress
// table (§5.1's progress collector made visible). It serves JSON
// snapshots of per-worker counters, a plain-text summary and the
// Prometheus exposition, suitable for curl, dashboards or scrapers.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"gminer/internal/trace"
)

// Source is what the monitor samples: per-worker counters and job
// metadata. *cluster.Job satisfies it.
type Source interface {
	// WorkerSnapshots returns one snapshot per worker.
	WorkerSnapshots() []Snapshot
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

// Monitor serves one job's status over HTTP.
type Monitor struct {
	src    Source
	tracer *trace.Tracer // optional; adds histograms to /metrics
	start  time.Time

	mu  sync.Mutex
	srv *http.Server
}

// NewMonitor creates a monitor over src.
func NewMonitor(src Source) *Monitor {
	return &Monitor{src: src, start: time.Now()}
}

// SetTracer attaches a tracer whose latency histograms and event counters
// are appended to the /metrics exposition. Call before Start.
func (s *Monitor) SetTracer(t *trace.Tracer) { s.tracer = t }

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Stop.
// Returns the bound address.
func (s *Monitor) Start(addr string) (string, error) {
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
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Stop shuts the server down.
func (s *Monitor) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		_ = s.srv.Close()
		s.srv = nil
	}
}

func (s *Monitor) status() Status {
	snaps := s.src.WorkerSnapshots()
	st := Status{
		Uptime: time.Since(s.start).Round(time.Millisecond).String(),
		Done:   s.src.Done(),
	}
	var total Snapshot
	for i, snap := range snaps {
		st.Workers = append(st.Workers, workerStatus(i, snap))
		total = total.Add(snap)
	}
	st.Totals = workerStatus(-1, total)
	return st
}

func workerStatus(i int, s Snapshot) WorkerStatus {
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

// handleMetrics serves the Prometheus text exposition: the per-worker
// counter families, the job's state, the process heap, and the tracer's
// latency histograms and event counters when a tracer is attached.
func (s *Monitor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := NewProm(w)
	p.WriteWorkers([]JobSnapshots{{Workers: s.src.WorkerSnapshots()}})
	done := int64(0)
	if s.src.Done() {
		done = 1
	}
	p.Family("gminer_job_done", "gauge", "Whether the job has terminated.").Int("", done)
	p.Family("gminer_uptime_seconds", "gauge", "Time since the monitor started.").Float("", time.Since(s.start).Seconds())
	p.WriteHeap()
	p.WriteTracer(s.tracer)
}

func (s *Monitor) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.status())
}

func (s *Monitor) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.src.Done() {
		fmt.Fprintln(w, "done")
		return
	}
	fmt.Fprintln(w, "running")
}

func (s *Monitor) handleText(w http.ResponseWriter, r *http.Request) {
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
