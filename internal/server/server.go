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
	"maps"
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
)

// Cluster is the warm-session surface the daemon serves over:
// cluster.Session, whichever host its workers live on. The registry and
// handlers never ask which; a capability the host lacks gives its neutral
// answer (no mutations, no worker processes to report).
type Cluster interface {
	Launch(a core.Algorithm, opt cluster.JobOptions) (*cluster.Job, error)
	Graph() *graph.Graph
	Config() cluster.Config
	PartitionTime() time.Duration
	EdgeCut() float64
	Fingerprint() uint64
	ActiveJobs() int
	DroppedMessages() int64
	// GraphEpoch is the resident graph's mutation epoch (0 on a static
	// session, monotonic on a dynamic one).
	GraphEpoch() int64
	// WithGraphRead runs fn while the resident graph is guaranteed not to
	// mutate. On static sessions it is a plain call.
	WithGraphRead(fn func())
	// Dynamic reports whether ApplyMutations takes batches: only a session
	// built with cluster.Config.Dynamic does (POST /graph/mutations answers
	// 501 elsewhere).
	Dynamic() bool
	ApplyMutations(b dyngraph.Batch) (*cluster.EpochResult, error)
	// WorkerHealth is the per-slot liveness of the worker processes for
	// /healthz and /metrics; nil when the workers are goroutines, alive iff
	// the daemon is.
	WorkerHealth() []cluster.WorkerStatus
	Close()
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
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
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
		"dynamic":     s.sess.Dynamic(),
		"queued":      queued,
		"running":     running,
		"standing":    standing,
		"sessions":    1,
	}
	if workers := s.sess.WorkerHealth(); workers != nil {
		// Multi-process mode: the daemon is degraded (still 503, like
		// draining — load balancers should not route here) until every
		// worker slot has a live process attached.
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

// handleMetrics serves the daemon's Prometheus exposition: the per-worker
// counter table with a job label, then the daemon's own families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg := s.reg
	reg.mu.Lock()
	var jobs []metrics.JobSnapshots
	for _, id := range reg.order {
		j := reg.jobs[id]
		switch {
		case j.cj != nil && j.state == StateRunning:
			jobs = append(jobs, metrics.JobSnapshots{Job: id, Workers: j.cj.WorkerSnapshots()})
		case j.result != nil:
			jobs = append(jobs, metrics.JobSnapshots{Job: id, Workers: j.result.PerWorker})
		}
	}
	rounds, finished := maps.Clone(reg.standingRounds), maps.Clone(reg.finished)
	lists, bytes := reg.residentLists, reg.residentBytes
	reg.mu.Unlock()
	queued, running, standing, retained := reg.counts()
	apps, _ := reg.meter.Snapshot()
	cs := reg.cache.Stats()

	p := metrics.NewProm(w)
	p.WriteWorkers(jobs)
	p.WriteTenants(reg.tenantStats())
	p.Family("gminer_app_cost_estimate_seconds", "gauge", "EWMA compute-cost estimate per task type, used to price admission.")
	for _, ac := range apps {
		p.Float("", ac.Estimate, "app", ac.App)
	}
	p.Family("gminer_app_cost_seconds_total", "counter", "Metered compute spend per task type.")
	for _, ac := range apps {
		p.Float("", ac.CostSum, "app", ac.App)
	}
	p.Family("gminer_app_jobs_total", "counter", "Metered finished jobs per task type.")
	for _, ac := range apps {
		p.Int("", ac.Jobs, "app", ac.App)
	}
	p.Family("gminer_app_phase_seconds_total", "counter", "Cumulative pipeline-phase time per task type.")
	for _, ac := range apps {
		for _, phase := range sortedKeys(ac.Phases) {
			p.Float("", ac.Phases[phase].Seconds, "app", ac.App, "phase", phase)
		}
	}
	p.Family("gminer_result_cache_hits_total", "counter", "Jobs answered from the result cache.").Int("", cs.Hits)
	p.Family("gminer_result_cache_misses_total", "counter", "Submits that had to compute.").Int("", cs.Misses)
	p.Family("gminer_result_cache_entries", "gauge", "Result-cache entries resident.").Int("", int64(cs.Entries))
	if workers := s.sess.WorkerHealth(); workers != nil {
		p.Family("gminer_cluster_workers", "gauge", "Worker-process slots in the multi-process cluster.").Int("", int64(len(workers)))
		p.Family("gminer_cluster_worker_up", "gauge", "Whether a live worker process holds the slot (by node index).")
		for _, st := range workers {
			p.Int("", boolInt(st.Joined), "node", strconv.Itoa(st.Node))
		}
		p.Family("gminer_cluster_worker_generation", "gauge", "Fencing generation of the process holding the slot (rises on every reclaim).")
		for _, st := range workers {
			p.Int("", int64(st.Generation), "node", strconv.Itoa(st.Node))
		}
		p.Family("gminer_cluster_worker_heartbeat_age_seconds", "gauge", "Time since the slot's last heartbeat.")
		for _, st := range workers {
			if !st.LastSeen.IsZero() {
				p.Float("", time.Since(st.LastSeen).Seconds(), "node", strconv.Itoa(st.Node))
			}
		}
		p.Family("gminer_cluster_worker_draining", "gauge", "Whether the slot's process is draining for a rolling restart.")
		for _, st := range workers {
			p.Int("", boolInt(st.Draining), "node", strconv.Itoa(st.Node))
		}
	}
	p.Family("gminer_graph_epoch", "gauge", "Mutation epoch of the resident graph (0 = as loaded).").Int("", s.sess.GraphEpoch())
	p.Family("gminer_standing_rounds_total", "counter", "Per-epoch delta rounds completed across all standing jobs, by the arm that served them.")
	for _, mode := range [...]string{roundIncremental, roundFull, roundFallback} {
		p.Int("", rounds[mode], "mode", mode)
	}
	p.Family("gminer_resident_lists", "gauge", "Forward lists of the oriented graph held on every worker beside its own partition, as of the last job that mined it.").Int("", int64(lists))
	p.Family("gminer_resident_bytes", "gauge", "Footprint of one copy of those lists.").Int("", bytes)
	p.Family("gminer_jobs_standing", "gauge", "Standing queries live on the resident graph.").Int("", int64(standing))
	p.Family("gminer_jobs_active", "gauge", "Jobs currently mining on the warm cluster.").Int("", int64(running))
	p.Family("gminer_jobs_queued_total", "gauge", "Jobs waiting in the admission queue across all tenants.").Int("", int64(queued))
	p.Family("gminer_jobs_finished_total", "counter", "Jobs that reached each terminal state since the daemon started.")
	for _, st := range terminalStates {
		p.Int("", finished[st], "state", st)
	}
	p.Family("gminer_jobs_retained", "gauge", "Finished jobs still queryable, by terminal state (the oldest are evicted past the retention cap).")
	for _, st := range terminalStates {
		p.Int("", int64(retained[st]), "state", st)
	}
	p.WriteHeap()
	p.Family("gminer_uptime_seconds", "gauge", "Time since the daemon started.").Float("", time.Since(s.start).Seconds())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
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
