package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
)

func servingGraph() *graph.Graph {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2500, Seed: 13})
	// The daemon prepares every annotation family once at startup; jobs
	// must never mutate the shared graph.
	jobspec.Prepare(g, jobspec.Spec{App: "gm"}.Normalize())
	jobspec.Prepare(g, jobspec.Spec{App: "cd"}.Normalize())
	return g
}

func testClusterConfig() cluster.Config {
	return cluster.Config{
		Workers:          3,
		Threads:          2,
		CacheCapacity:    512,
		StoreMemCapacity: 256,
		UseLSH:           true,
	}
}

// startServer brings up a daemon over a fresh warm session and returns
// its base URL plus a teardown.
func startServer(t *testing.T, ccfg cluster.Config, scfg Config) (*Server, string) {
	t.Helper()
	sess, err := cluster.NewSession(servingGraph(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess, scfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		sess.Close()
		t.Fatal(err)
	}
	return srv, "http://" + addr
}

func submit(t *testing.T, base string, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp, st
}

func awaitState(t *testing.T, base, id string, want ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %v", id, want)
	return JobStatus{}
}

func fetchText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestSubmitResultByteIdentical: a job served over HTTP must return the
// byte-identical record stream a single-shot cluster.Run produces for the
// same graph and spec.
func TestSubmitResultByteIdentical(t *testing.T) {
	g := servingGraph()
	spec := jobspec.Spec{App: "gm"}.Normalize()
	a, err := jobspec.Build(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cluster.Run(g, a, testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, rec := range ref.Records {
		want.WriteString(rec)
		want.WriteByte('\n')
	}

	srv, base := startServer(t, testClusterConfig(), Config{})
	defer srv.Shutdown()

	resp, st := submit(t, base, `{"app":"gm"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	fin := awaitState(t, base, st.ID, StateDone, StateFailed)
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	code, body := fetchText(t, base+"/jobs/"+st.ID+"/result?format=text")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if body != want.String() {
		t.Fatalf("served records diverge from single-shot run (%d vs %d bytes)", len(body), want.Len())
	}

	// The JSON form must agree with the text form and carry the aggregate.
	resp2, err := http.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResult
	if err := json.NewDecoder(resp2.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(jr.Records) != len(ref.Records) {
		t.Fatalf("JSON records: got %d want %d", len(jr.Records), len(ref.Records))
	}
	if jr.Aggregate != fmt.Sprintf("%v", ref.AggGlobal) {
		t.Fatalf("aggregate: got %q want %q", jr.Aggregate, fmt.Sprintf("%v", ref.AggGlobal))
	}
}

// TestConcurrentJobsOverHTTP submits the smoke trio concurrently and
// checks every one lands byte-identical to its single-shot reference.
func TestConcurrentJobsOverHTTP(t *testing.T) {
	g := servingGraph()
	refs := map[string]string{}
	for _, app := range []string{"tc", "gm", "cd"} {
		a, err := jobspec.Build(g, jobspec.Spec{App: app}.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Run(g, a, testClusterConfig())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, rec := range res.Records {
			b.WriteString(rec)
			b.WriteByte('\n')
		}
		refs[app] = b.String()
	}

	srv, base := startServer(t, testClusterConfig(), Config{MaxConcurrentJobs: 3})
	defer srv.Shutdown()

	ids := map[string]string{}
	for _, app := range []string{"tc", "gm", "cd"} {
		resp, st := submit(t, base, fmt.Sprintf(`{"app":%q,"id":%q}`, app, app))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", app, resp.StatusCode)
		}
		ids[app] = st.ID
	}
	for app, id := range ids {
		fin := awaitState(t, base, id, StateDone, StateFailed)
		if fin.State != StateDone {
			t.Fatalf("job %s finished %s: %s", app, fin.State, fin.Error)
		}
		_, body := fetchText(t, base+"/jobs/"+id+"/result?format=text")
		if body != refs[app] {
			t.Errorf("job %s diverges from single-shot reference", app)
		}
	}
}

// metricGauge scrapes one plain gauge value from /metrics.
func metricGauge(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := fetchText(t, base+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics", name)
	return 0
}

// TestCancelMidJobReleasesResources cancels a running job over HTTP and
// checks it drains, gminer_jobs_active returns to 0, and a co-resident
// job is unaffected.
func TestCancelMidJobReleasesResources(t *testing.T) {
	ccfg := testClusterConfig()
	ccfg.Latency = 500 * time.Microsecond // slow the rounds so Cancel lands mid-flight
	srv, base := startServer(t, ccfg, Config{MaxConcurrentJobs: 2})
	defer srv.Shutdown()

	_, victim := submit(t, base, `{"app":"mcf","id":"victim"}`)
	_, bystander := submit(t, base, `{"app":"tc","id":"bystander"}`)
	awaitState(t, base, victim.ID, StateRunning, StateDone)

	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/victim", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	fin := awaitState(t, base, victim.ID, StateCancelled, StateDone)
	if fin.State == StateCancelled {
		if code, _ := fetchText(t, base+"/jobs/victim/result"); code != http.StatusConflict {
			t.Fatalf("result of cancelled job: status %d, want 409", code)
		}
	}
	if st := awaitState(t, base, bystander.ID, StateDone, StateFailed); st.State != StateDone {
		t.Fatalf("bystander finished %s: %s", st.State, st.Error)
	}
	if v := metricGauge(t, base, "gminer_jobs_active"); v != 0 {
		t.Fatalf("gminer_jobs_active after drain: got %g want 0", v)
	}
	if n := srv.sess.ActiveJobs(); n != 0 {
		t.Fatalf("session still holds %d jobs after cancel+finish", n)
	}
}

// TestAdmissionQueueFull fills the concurrency slots and the queue, then
// expects HTTP 429 with a Retry-After hint.
func TestAdmissionQueueFull(t *testing.T) {
	ccfg := testClusterConfig()
	ccfg.Latency = time.Millisecond // keep the slot-holders running
	srv, base := startServer(t, ccfg, Config{MaxConcurrentJobs: 1, MaxQueueDepth: 1})
	defer srv.Shutdown()

	if resp, _ := submit(t, base, `{"app":"mcf","id":"slot"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	awaitState(t, base, "slot", StateRunning, StateDone)
	if resp, _ := submit(t, base, `{"app":"mcf","id":"queued"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp, _ := submit(t, base, `{"app":"mcf","id":"rejected"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: got %d want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("429 with Retry-After %q, want the 1 s hint", got)
	}
	// Unblock the test quickly.
	for _, id := range []string{"slot", "queued"} {
		req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
		if r, err := http.DefaultClient.Do(req); err == nil {
			r.Body.Close()
		}
	}
}

// TestBadRequests: malformed and invalid submissions get 400, unknown
// jobs 404, duplicate IDs 409.
func TestBadRequests(t *testing.T) {
	srv, base := startServer(t, testClusterConfig(), Config{})
	defer srv.Shutdown()

	for _, body := range []string{``, `{`, `{"app":"bogus"}`, `{"app":"tc","minsim":7}`, `{"app":"tc","id":"../etc"}`} {
		if resp, _ := submit(t, base, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: got %d want 400", body, resp.StatusCode)
		}
	}
	if code, _ := fetchText(t, base+"/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job status: got %d want 404", code)
	}
	if resp, _ := submit(t, base, `{"app":"tc","id":"dup"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dup setup: %d", resp.StatusCode)
	}
	if resp, _ := submit(t, base, `{"app":"tc","id":"dup"}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate id: got %d want 409", resp.StatusCode)
	}
	awaitState(t, base, "dup", StateDone, StateFailed)
}

// TestGracefulShutdownReleasesPort: Shutdown must drain running jobs and
// free the listen port so a restarted daemon can bind the same address —
// the SIGTERM contract.
func TestGracefulShutdownReleasesPort(t *testing.T) {
	srv, base := startServer(t, testClusterConfig(), Config{DrainTimeout: 30 * time.Second})
	addr := srv.Addr()

	if resp, _ := submit(t, base, `{"app":"tc","id":"inflight"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	srv.Shutdown() // must wait for "inflight" to finish, then close the port

	sess2, err := cluster.NewSession(servingGraph(), testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(sess2, Config{})
	addr2, err := srv2.Start(addr)
	if err != nil {
		t.Fatalf("rebind %s after shutdown: %v", addr, err)
	}
	defer srv2.Shutdown()
	if addr2 != addr {
		t.Fatalf("rebound address %s != %s", addr2, addr)
	}
	// The shared client holds a keep-alive connection to the dead process
	// instance; a restarted daemon means a fresh connection.
	http.DefaultClient.CloseIdleConnections()
	if resp, _ := submit(t, "http://"+addr2, `{"app":"tc"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after restart: %d", resp.StatusCode)
	}
}

// TestDrainRefusesNewJobs: once draining, submissions get 503 and healthz
// flips to draining.
func TestDrainRefusesNewJobs(t *testing.T) {
	srv, base := startServer(t, testClusterConfig(), Config{})
	defer srv.Shutdown()

	srv.reg.drain(time.Second)
	resp, _ := submit(t, base, `{"app":"tc"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: got %d want 503", resp.StatusCode)
	}
	code, body := fetchText(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("healthz while draining: code %d body %q", code, body)
	}
}

// TestMetricsPerJobLabels: /metrics must expose the monitor's counter
// families labeled per job, and — once a job has mined the oriented graph —
// the size of the resident set it ran with — beside the daemon's own heap:
// its gauges, and its allocation and GC-cycle counters, which a job does not
// take back.
func TestMetricsPerJobLabels(t *testing.T) {
	srv, base := startServer(t, testClusterConfig(), Config{})
	defer srv.Shutdown()

	if lists := metricGauge(t, base, "gminer_resident_lists"); lists != 0 {
		t.Fatalf("gminer_resident_lists = %v before any job", lists)
	}
	counters := []string{"gminer_heap_allocs_bytes_total", "gminer_gc_cycles_total"}
	before := make([]float64, len(counters))
	for i, name := range counters {
		before[i] = metricGauge(t, base, name)
	}
	if resp, _ := submit(t, base, `{"app":"tc","id":"metrics-probe"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	awaitState(t, base, "metrics-probe", StateDone)
	if lists, bytes := metricGauge(t, base, "gminer_resident_lists"), metricGauge(t, base, "gminer_resident_bytes"); lists <= 0 || bytes < 60*lists {
		t.Fatalf("after a tc job: gminer_resident_lists %v, gminer_resident_bytes %v", lists, bytes)
	}
	_, body := fetchText(t, base+"/metrics")
	if !strings.Contains(body, `gminer_tasks_done_total{job="metrics-probe",worker="0"}`) {
		t.Fatalf("per-job labeled series missing from /metrics:\n%s", body[:min(len(body), 800)])
	}
	if goal := metricGauge(t, base, "gminer_heap_goal_bytes"); goal <= 0 {
		t.Fatalf("gminer_heap_goal_bytes = %v: the daemon's heap is not on /metrics", goal)
	}
	for i, name := range counters {
		if after := metricGauge(t, base, name); after < before[i] || !strings.Contains(body, "# TYPE "+name+" counter\n") {
			t.Fatalf("%s went %v -> %v across a job, or is not typed a counter", name, before[i], after)
		}
	}
}

// TestServedJobPhases: a served job's status carries the task-round phase
// both live, while the job runs, and final, once it is done.
func TestServedJobPhases(t *testing.T) {
	ccfg := testClusterConfig()
	ccfg.Latency = 5 * time.Millisecond // slow the rounds so a poll lands mid-job
	srv, base := startServer(t, ccfg, Config{})
	defer srv.Shutdown()

	taskRound := func(st JobStatus) int64 {
		for _, p := range st.Phases {
			if p.Metric == "task_round" {
				if p.Component != "executor" || p.P50 <= 0 || p.P99 < p.P50 || p.Total <= 0 {
					t.Fatalf("task_round phase: %+v", p)
				}
				return p.Count
			}
		}
		return 0
	}
	_, st := submit(t, base, `{"app":"mcf","id":"phased"}`)
	deadline := time.Now().Add(60 * time.Second)
	for {
		st = awaitState(t, base, st.ID, StateRunning, StateDone, StateFailed)
		if st.State != StateRunning {
			t.Fatalf("job went %s before a running status carried task_round", st.State)
		}
		if taskRound(st) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no live task_round phase")
		}
		time.Sleep(2 * time.Millisecond)
	}
	fin := awaitState(t, base, st.ID, StateDone, StateFailed)
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	if n := taskRound(fin); n == 0 || n < taskRound(st) {
		t.Fatalf("final task_round count %d (live %d)", n, taskRound(st))
	}
	srv.reg.mu.Lock()
	res := srv.reg.jobs[st.ID].result
	srv.reg.mu.Unlock()
	if res == nil || !reflect.DeepEqual(res.Phases, fin.Phases) {
		t.Fatal("the final status must carry the result's phases")
	}
}
