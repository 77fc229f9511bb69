// Package server is the job-serving subsystem behind the gminerd daemon:
// a long-lived process that loads and BDG-partitions the graph once,
// keeps the cluster warm (worker tables, transport, partition
// assignment), and serves concurrent mining jobs over HTTP/JSON. It
// layers a job registry and an admission controller (bounded queue,
// concurrency cap, per-job memory budgets) on cluster.Session, which
// supplies the isolation and byte-identical-to-single-shot guarantees.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/monitor"
)

// Cluster is the warm-session surface the daemon serves over. Both the
// in-process cluster.Session and the multi-process cluster.RemoteSession
// satisfy it; the registry and handlers are agnostic to which one backs
// them.
type Cluster interface {
	Launch(a core.Algorithm, opt cluster.JobOptions) (*cluster.Job, error)
	Graph() *graph.Graph
	Config() cluster.Config
	PartitionTime() time.Duration
	EdgeCut() float64
	Fingerprint() uint64
	ActiveJobs() int
	DroppedMessages() int64
	// GraphEpoch is the resident graph's mutation epoch (0 on a static or
	// remote session, monotonic on a dynamic one).
	GraphEpoch() int64
	// WithGraphRead runs fn while the resident graph is guaranteed not to
	// mutate. On static sessions it is a plain call.
	WithGraphRead(fn func())
	Close()
}

// MutableCluster is the optional dynamic-graph extension of Cluster: only
// the in-process cluster.Session started with Config.Dynamic implements a
// true ApplyMutations (remote sessions reject Config.Dynamic at build
// time, so POST /graph/mutations answers 501 there).
type MutableCluster interface {
	Cluster
	Dynamic() bool
	ApplyMutations(b dyngraph.Batch) (*cluster.EpochResult, error)
}

// WorkerHealthReporter is the optional multi-process extension of
// Cluster: per-worker-process liveness for /healthz and /metrics. The
// in-process Session does not implement it (its workers are goroutines —
// alive iff the daemon is).
type WorkerHealthReporter interface {
	WorkerHealth() []cluster.WorkerStatus
}

// Server serves mining jobs over one warm cluster session.
type Server struct {
	sess  Cluster
	reg   *registry
	cfg   Config
	start time.Time

	// mutMu serializes mutation batches end to end: pre-reads on the old
	// graph, the epoch apply, cache invalidation and every standing job's
	// delta round happen as one unit, so the state visible when POST
	// /graph/mutations returns is deterministic.
	mutMu sync.Mutex

	srv *http.Server
	ln  net.Listener
}

// New builds a Server over an already-warm session. The caller keeps
// ownership of the session's graph (it must be fully prepared — labels,
// attributes — before any job runs; see jobspec.Prepare).
func New(sess Cluster, cfg Config) *Server {
	return &Server{
		sess:  sess,
		reg:   newRegistry(sess, cfg),
		cfg:   cfg.defaults(),
		start: time.Now(),
	}
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /graph/mutations", s.handleMutate)
	mux.HandleFunc("GET /jobs/{id}/deltas", s.handleDeltas)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Start listens on addr (e.g. "127.0.0.1:7077", ":0") and serves until
// Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// SubmitJob enqueues a job through the same admission path as POST /jobs.
// The daemon uses it to resubmit held jobs after a coordinator `-resume`
// restart; keeping the IDs identical lets the cluster layer match each
// job to its on-disk JOBSPEC + MANIFEST and restore instead of recompute.
func (s *Server) SubmitJob(req JobRequest) error {
	_, err := s.reg.submit(req)
	return err
}

// Shutdown is the graceful stop behind SIGINT/SIGTERM: refuse new jobs,
// cancel the queue, give running jobs up to the drain timeout to finish
// (checkpointing as they go), cancel stragglers, then close the listener
// — releasing the port — and tear the warm cluster down.
func (s *Server) Shutdown() {
	s.reg.drain(s.cfg.defaults().DrainTimeout)
	if s.srv != nil {
		_ = s.srv.Close()
		s.srv = nil
	}
	s.sess.Close()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxJobRequestBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	req, err := decodeJobRequest(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.reg.submit(req)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After",
			strconv.Itoa(int(s.cfg.RetryAfter/time.Second)+1))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrDuplicateID), errors.Is(err, ErrEpochMismatch):
		writeErr(w, http.StatusConflict, err)
		return
	case errors.Is(err, ErrNotDynamic):
		writeErr(w, http.StatusNotImplemented, err)
		return
	default:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSONCode(w, http.StatusAccepted, s.statusOf(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.reg.mu.Lock()
	ids := append([]string(nil), s.reg.order...)
	s.reg.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, err := s.reg.get(id); err == nil {
			out = append(out, s.statusOf(j))
		}
	}
	writeJSON(w, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.reg.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, s.statusOf(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.reg.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.reg.mu.Lock()
	state, res, jerr := j.state, j.result, j.err
	app, id := j.req.App, j.id
	cached, cost := j.cached, j.costSeconds
	s.reg.mu.Unlock()
	switch state {
	case StateQueued, StateRunning:
		// Not done yet: 202 tells pollers to come back.
		writeJSONCode(w, http.StatusAccepted, s.statusOf(j))
		return
	case StateDone:
	case StateStanding:
		// A standing job's result is its CURRENT accumulated match set —
		// the registry rolls j.result forward with every delta round.
	default: // failed, cancelled, preempted, shed
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job %s is %s: %v", id, state, jerr))
		return
	}
	if r.URL.Query().Get("format") == "text" {
		// One record per line, byte-identical to the single-shot CLI's
		// -out file for the same graph and spec.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, rec := range res.Records {
			_, _ = io.WriteString(w, rec)
			_, _ = io.WriteString(w, "\n")
		}
		return
	}
	records := res.Records
	if records == nil {
		records = []string{}
	}
	out := JobResult{
		ID:             id,
		App:            app,
		State:          state,
		Records:        records,
		ElapsedSeconds: res.Elapsed.Seconds(),
		EdgeCut:        res.EdgeCut,
		TasksDone:      res.Total.TasksDone,
		Cached:         cached,
		CostSeconds:    cost,
	}
	if res.AggGlobal != nil {
		out.Aggregate = fmt.Sprintf("%v", res.AggGlobal)
	}
	writeJSON(w, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.reg.cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, s.statusOf(j))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	queued, running, standing, _ := s.reg.counts()
	s.reg.mu.Lock()
	draining := s.reg.draining
	s.reg.mu.Unlock()
	status, code := "ok", http.StatusOK
	var vertices int
	s.sess.WithGraphRead(func() { vertices = s.sess.Graph().NumVertices() })
	doc := map[string]any{
		"uptime":      time.Since(s.start).Round(time.Millisecond).String(),
		"graph":       map[string]int{"vertices": vertices},
		"graph_epoch": s.sess.GraphEpoch(),
		"dynamic":     s.reg.dynamic(),
		"queued":      queued,
		"running":     running,
		"standing":    standing,
		"sessions":    1,
	}
	if hr, ok := s.sess.(WorkerHealthReporter); ok {
		// Multi-process mode: the daemon is degraded (still 503, like
		// draining — load balancers should not route here) until every
		// worker slot has a live process attached.
		workers := hr.WorkerHealth()
		ws := make([]map[string]any, len(workers))
		allUp := true
		for i, st := range workers {
			ws[i] = map[string]any{
				"node":       st.Node,
				"joined":     st.Joined,
				"addr":       st.Addr,
				"generation": st.Generation,
				"draining":   st.Draining,
			}
			if !st.LastSeen.IsZero() {
				ws[i]["heartbeat_age_seconds"] = time.Since(st.LastSeen).Seconds()
			}
			if !st.Joined {
				allUp = false
			}
		}
		doc["workers"] = ws
		if !allUp {
			status, code = "degraded", http.StatusServiceUnavailable
		}
	}
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	doc["status"] = status
	writeJSONCode(w, code, doc)
}

// handleMetrics reuses the monitor package's Prometheus family table with
// per-job labels, plus daemon-level job gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	s.reg.mu.Lock()
	var labeled []monitor.JobSnapshots
	for _, id := range s.reg.order {
		j := s.reg.jobs[id]
		var snaps []metrics.Snapshot
		switch {
		case j.cj != nil && j.state == StateRunning:
			snaps = j.cj.WorkerSnapshots()
		case j.result != nil:
			snaps = j.result.PerWorker
		}
		if snaps != nil {
			labeled = append(labeled, monitor.JobSnapshots{Job: id, Workers: snaps})
		}
	}
	s.reg.mu.Unlock()
	monitor.WriteProm(w, labeled)

	// Per-tenant QoS families: queue depth, wait summary, spend ledger.
	byTenant := s.reg.tenantStats()
	tenants := make([]string, 0, len(byTenant))
	for tenant := range byTenant {
		tenants = append(tenants, tenant)
	}
	sort.Strings(tenants)
	stats := make([]monitor.TenantStat, 0, len(tenants))
	for _, tenant := range tenants {
		ts := byTenant[tenant]
		stats = append(stats, monitor.TenantStat{
			Tenant:         tenant,
			Queued:         ts.queued,
			WaitSumSeconds: ts.waitSum,
			WaitCount:      ts.waitCount,
			SpendSeconds:   ts.spend,
		})
	}
	monitor.WriteTenantProm(w, stats)

	// Per-app cost meter: EWMA price estimates plus the opMeter phase
	// table (count + cumulative seconds per pipeline phase per task type).
	apps, _ := s.reg.meter.Snapshot()
	fmt.Fprintf(w, "# HELP gminer_app_cost_estimate_seconds EWMA compute-cost estimate per task type, used to price admission.\n# TYPE gminer_app_cost_estimate_seconds gauge\n")
	for _, ac := range apps {
		fmt.Fprintf(w, "gminer_app_cost_estimate_seconds{app=%q} %s\n", ac.App, promFloat(ac.Estimate))
	}
	fmt.Fprintf(w, "# HELP gminer_app_cost_seconds_total Metered compute spend per task type.\n# TYPE gminer_app_cost_seconds_total counter\n")
	for _, ac := range apps {
		fmt.Fprintf(w, "gminer_app_cost_seconds_total{app=%q} %s\n", ac.App, promFloat(ac.CostSum))
	}
	fmt.Fprintf(w, "# HELP gminer_app_jobs_total Metered finished jobs per task type.\n# TYPE gminer_app_jobs_total counter\n")
	for _, ac := range apps {
		fmt.Fprintf(w, "gminer_app_jobs_total{app=%q} %d\n", ac.App, ac.Jobs)
	}
	fmt.Fprintf(w, "# HELP gminer_app_phase_seconds_total Cumulative pipeline-phase time per task type.\n# TYPE gminer_app_phase_seconds_total counter\n")
	for _, ac := range apps {
		for _, phase := range sortedKeys(ac.Phases) {
			fmt.Fprintf(w, "gminer_app_phase_seconds_total{app=%q,phase=%q} %s\n",
				ac.App, phase, promFloat(ac.Phases[phase].Seconds))
		}
	}

	// Result cache.
	cs := s.reg.cache.Stats()
	fmt.Fprintf(w, "# HELP gminer_result_cache_hits_total Jobs answered from the result cache.\n# TYPE gminer_result_cache_hits_total counter\ngminer_result_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# HELP gminer_result_cache_misses_total Submits that had to compute.\n# TYPE gminer_result_cache_misses_total counter\ngminer_result_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# HELP gminer_result_cache_entries Result-cache entries resident.\n# TYPE gminer_result_cache_entries gauge\ngminer_result_cache_entries %d\n", cs.Entries)

	// Multi-process cluster membership.
	if hr, ok := s.sess.(WorkerHealthReporter); ok {
		workers := hr.WorkerHealth()
		fmt.Fprintf(w, "# HELP gminer_cluster_workers Worker-process slots in the multi-process cluster.\n# TYPE gminer_cluster_workers gauge\ngminer_cluster_workers %d\n", len(workers))
		fmt.Fprintf(w, "# HELP gminer_cluster_worker_up Whether a live worker process holds the slot (by node index).\n# TYPE gminer_cluster_worker_up gauge\n")
		for _, st := range workers {
			up := 0
			if st.Joined {
				up = 1
			}
			fmt.Fprintf(w, "gminer_cluster_worker_up{node=\"%d\"} %d\n", st.Node, up)
		}
		fmt.Fprintf(w, "# HELP gminer_cluster_worker_generation Fencing generation of the process holding the slot (rises on every reclaim).\n# TYPE gminer_cluster_worker_generation gauge\n")
		for _, st := range workers {
			fmt.Fprintf(w, "gminer_cluster_worker_generation{node=\"%d\"} %d\n", st.Node, st.Generation)
		}
		fmt.Fprintf(w, "# HELP gminer_cluster_worker_heartbeat_age_seconds Time since the slot's last heartbeat.\n# TYPE gminer_cluster_worker_heartbeat_age_seconds gauge\n")
		for _, st := range workers {
			if !st.LastSeen.IsZero() {
				fmt.Fprintf(w, "gminer_cluster_worker_heartbeat_age_seconds{node=\"%d\"} %s\n", st.Node, promFloat(time.Since(st.LastSeen).Seconds()))
			}
		}
		fmt.Fprintf(w, "# HELP gminer_cluster_worker_draining Whether the slot's process is draining for a rolling restart.\n# TYPE gminer_cluster_worker_draining gauge\n")
		for _, st := range workers {
			d := 0
			if st.Draining {
				d = 1
			}
			fmt.Fprintf(w, "gminer_cluster_worker_draining{node=\"%d\"} %d\n", st.Node, d)
		}
	}

	// Dynamic-graph families: the resident epoch, live standing queries
	// and completed delta rounds.
	fmt.Fprintf(w, "# HELP gminer_graph_epoch Mutation epoch of the resident graph (0 = as loaded).\n# TYPE gminer_graph_epoch gauge\ngminer_graph_epoch %d\n", s.sess.GraphEpoch())
	fmt.Fprintf(w, "# HELP gminer_standing_rounds_total Per-epoch delta rounds completed across all standing jobs, by the arm that served them.\n# TYPE gminer_standing_rounds_total counter\n")
	modes := []string{roundIncremental, roundFull, roundFallback}
	rounds := make([]int64, len(modes))
	s.reg.mu.Lock()
	for i, mode := range modes {
		rounds[i] = s.reg.standingRounds[mode]
	}
	s.reg.mu.Unlock()
	for i, mode := range modes {
		fmt.Fprintf(w, "gminer_standing_rounds_total{mode=%q} %d\n", mode, rounds[i])
	}

	s.reg.mu.Lock()
	lists, bytes := s.reg.residentLists, s.reg.residentBytes
	s.reg.mu.Unlock()
	fmt.Fprintf(w, "# HELP gminer_resident_lists Forward lists of the oriented graph held on every worker beside its own partition, as of the last job that mined it.\n# TYPE gminer_resident_lists gauge\ngminer_resident_lists %d\n", lists)
	fmt.Fprintf(w, "# HELP gminer_resident_bytes Footprint of one copy of those lists.\n# TYPE gminer_resident_bytes gauge\ngminer_resident_bytes %d\n", bytes)

	queued, running, standing, retained := s.reg.counts()
	finished := make([]int64, len(terminalStates))
	s.reg.mu.Lock()
	for i, st := range terminalStates {
		finished[i] = s.reg.finished[st]
	}
	s.reg.mu.Unlock()
	fmt.Fprintf(w, "# HELP gminer_jobs_standing Standing queries live on the resident graph.\n# TYPE gminer_jobs_standing gauge\ngminer_jobs_standing %d\n", standing)
	fmt.Fprintf(w, "# HELP gminer_jobs_active Jobs currently mining on the warm cluster.\n# TYPE gminer_jobs_active gauge\ngminer_jobs_active %d\n", running)
	fmt.Fprintf(w, "# HELP gminer_jobs_queued_total Jobs waiting in the admission queue across all tenants.\n# TYPE gminer_jobs_queued_total gauge\ngminer_jobs_queued_total %d\n", queued)
	fmt.Fprintf(w, "# HELP gminer_jobs_finished_total Jobs that reached each terminal state since the daemon started.\n# TYPE gminer_jobs_finished_total counter\n")
	for i, st := range terminalStates {
		fmt.Fprintf(w, "gminer_jobs_finished_total{state=%q} %d\n", st, finished[i])
	}
	fmt.Fprintf(w, "# HELP gminer_jobs_retained Finished jobs still queryable, by terminal state (the oldest are evicted past the retention cap).\n# TYPE gminer_jobs_retained gauge\n")
	for _, st := range terminalStates {
		fmt.Fprintf(w, "gminer_jobs_retained{state=%q} %d\n", st, retained[st])
	}
	monitor.WriteHeapProm(w)
	fmt.Fprintf(w, "# HELP gminer_uptime_seconds Time since the daemon started.\n# TYPE gminer_uptime_seconds gauge\ngminer_uptime_seconds %s\n",
		promFloat(time.Since(s.start).Seconds()))
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// statusOf snapshots one job into its API document.
func (s *Server) statusOf(j *job) JobStatus {
	s.reg.mu.Lock()
	st := JobStatus{
		ID:                  j.id,
		App:                 j.req.App,
		State:               j.state,
		Submitted:           j.submitted,
		Tenant:              j.tenant,
		Priority:            j.priority,
		Cached:              j.cached,
		CostSeconds:         j.costSeconds,
		CostEstimateSeconds: j.estimate,
		GraphEpoch:          j.epoch,
		DeltaRounds:         len(j.deltas),
	}
	if j.state == StateQueued {
		// Live view: the wait grows until dispatch, and the position is
		// the job's place in its tenant's dispatch order.
		st.QueueWaitSeconds = time.Since(j.submitted).Seconds()
		st.QueuePosition = s.reg.queue.Position(j.id)
	} else {
		st.QueueWaitSeconds = j.queueWait.Seconds()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	cj, tracer, res, started := j.cj, j.tracer, j.result, j.started
	s.reg.mu.Unlock()

	switch {
	case res != nil:
		st.Progress = &JobProgress{
			TasksDone:      res.Total.TasksDone,
			Results:        res.Total.Results,
			NetBytes:       res.Total.NetBytes,
			CacheHitRate:   res.Total.CacheHitRate(),
			ElapsedSeconds: res.Elapsed.Seconds(),
		}
		st.Phases = res.Phases
	case cj != nil:
		var total metrics.Snapshot
		for _, snap := range cj.WorkerSnapshots() {
			total = total.Add(snap)
		}
		st.Progress = &JobProgress{
			TasksDone:      total.TasksDone,
			Results:        total.Results,
			NetBytes:       total.NetBytes,
			CacheHitRate:   total.CacheHitRate(),
			ElapsedSeconds: time.Since(started).Seconds(),
		}
		st.Phases = tracer.Summary()
	}
	return st
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONCode(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}
