package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/graph"
)

func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// TestWeightedFairNoStarvation: one hog tenant floods the queue with four
// jobs; a light tenant submits one. Under FIFO the light job would start
// last; under weighted-fair queueing its virtual clock lags the hog's, so
// it must win the very next dispatch slot after the hog's first job.
func TestWeightedFairNoStarvation(t *testing.T) {
	ccfg := testClusterConfig()
	ccfg.Latency = time.Millisecond // the slot-holder must outlive the submission burst
	srv, base := startServer(t, ccfg, Config{MaxConcurrentJobs: 1, ResultCacheEntries: -1})
	defer srv.Shutdown()

	// The hog's first job holds the only slot (mcf + latency runs until
	// cancelled, so dispatch decisions below are timing-independent); its
	// next three build a backlog, then the light tenant submits one job.
	if resp, _ := submit(t, base, `{"app":"mcf","id":"h1","tenant":"hog"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit h1: %d", resp.StatusCode)
	}
	for _, id := range []string{"h2", "h3", "h4"} {
		resp, _ := submit(t, base, fmt.Sprintf(`{"app":"tc","id":%q,"tenant":"hog"}`, id))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d", id, resp.StatusCode)
		}
	}
	if resp, _ := submit(t, base, `{"app":"tc","id":"light-1","tenant":"light"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit light-1: %d", resp.StatusCode)
	}

	// Free the slot. The light tenant's virtual clock lags the hog's (the
	// hog already spent its h1 dispatch), so light-1 must win the next
	// slot ahead of the hog's h2..h4 backlog; FIFO would run it last.
	cancelJob(t, base, "h1")

	started := map[string]time.Time{}
	for _, id := range []string{"h2", "h3", "h4", "light-1"} {
		st := awaitState(t, base, id, StateDone, StateFailed)
		if st.State != StateDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
		if st.Started == nil {
			t.Fatalf("job %s has no start time", id)
		}
		started[id] = *st.Started
		if st.Tenant == "" {
			t.Fatalf("job %s status carries no tenant", id)
		}
	}
	for _, id := range []string{"h2", "h3", "h4"} {
		if !started["light-1"].Before(started[id]) {
			t.Fatalf("light tenant starved: %s started before light-1", id)
		}
	}
}

// TestResultCacheServesByteIdentical: a repeated identical workload —
// even from a different tenant — must be answered from the result cache,
// marked cached, and byte-identical in the text form.
func TestResultCacheServesByteIdentical(t *testing.T) {
	srv, base := startServer(t, testClusterConfig(), Config{})
	defer srv.Shutdown()

	if resp, _ := submit(t, base, `{"app":"gm","id":"one","tenant":"alice"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	fin := awaitState(t, base, "one", StateDone, StateFailed)
	if fin.State != StateDone {
		t.Fatalf("first job finished %s: %s", fin.State, fin.Error)
	}
	if fin.Cached {
		t.Fatal("first computation claims to be cached")
	}
	_, want := fetchText(t, base+"/jobs/one/result?format=text")

	// Same workload, different tenant and QoS hints: the cache key excludes
	// them, so this must hit.
	resp, st := submit(t, base, `{"app":"gm","id":"two","tenant":"bob","priority":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	if st.State != StateDone || !st.Cached {
		t.Fatalf("repeat submit: state %s cached %v, want instant cached done", st.State, st.Cached)
	}
	code, got := fetchText(t, base+"/jobs/two/result?format=text")
	if code != http.StatusOK {
		t.Fatalf("cached result: status %d", code)
	}
	if got != want {
		t.Fatalf("cached result not byte-identical (%d vs %d bytes)", len(got), len(want))
	}
	code, body := fetchText(t, base+"/jobs/two/result")
	if code != http.StatusOK || !strings.Contains(body, `"cached":true`) {
		t.Fatalf("cached JSON result: code %d body %.200s", code, body)
	}

	// A different workload must miss and compute.
	resp2, st2 := submit(t, base, `{"app":"tc","id":"miss"}`)
	if resp2.StatusCode != http.StatusAccepted || st2.Cached {
		t.Fatalf("different workload: code %d cached %v", resp2.StatusCode, st2.Cached)
	}
	awaitState(t, base, "miss", StateDone, StateFailed)

	_, metricsBody := fetchText(t, base+"/metrics")
	if !strings.Contains(metricsBody, "gminer_result_cache_hits_total 1") {
		t.Fatalf("cache hit not counted on /metrics")
	}
}

// TestQueuedDeleteFreesSlot is the satellite bugfix regression: DELETE of
// a still-queued job must remove it from the admission queue immediately
// and return its slot — an instant resubmit gets 202, not 429.
func TestQueuedDeleteFreesSlot(t *testing.T) {
	ccfg := testClusterConfig()
	ccfg.Latency = time.Millisecond // keep the slot-holder running
	srv, base := startServer(t, ccfg, Config{MaxConcurrentJobs: 1, MaxQueueDepth: 1, ResultCacheEntries: -1})
	defer srv.Shutdown()

	if resp, _ := submit(t, base, `{"app":"mcf","id":"slot"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slot submit: %d", resp.StatusCode)
	}
	awaitState(t, base, "slot", StateRunning, StateDone)
	if resp, _ := submit(t, base, `{"app":"mcf","id":"stuck"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}

	cancelJob(t, base, "stuck")
	st := awaitState(t, base, "stuck", StateCancelled)
	if st.State != StateCancelled {
		t.Fatalf("deleted queued job state: %s", st.State)
	}
	// The freed queue slot must be usable immediately, not once the dead
	// entry would have reached the head.
	resp, _ := submit(t, base, `{"app":"mcf","id":"after"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after queued delete: got %d want 202", resp.StatusCode)
	}
	cancelJob(t, base, "after")
	cancelJob(t, base, "slot")
}

// TestLoadSheddingCheapestFirst: under queue pressure, admission sheds
// the cheapest-to-recompute queued job in favour of expensive incoming
// work — and rejects incoming work that is itself the cheapest.
func TestLoadSheddingCheapestFirst(t *testing.T) {
	ccfg := testClusterConfig()
	ccfg.Latency = time.Millisecond
	srv, base := startServer(t, ccfg, Config{MaxConcurrentJobs: 1, MaxQueueDepth: 1, ResultCacheEntries: -1})
	defer srv.Shutdown()

	// Prime the meter so tc is known-cheap and mcf known-expensive; the
	// estimates drive the shed-vs-reject decision deterministically.
	srv.reg.meter.ObserveJob("tc", "default", 0.01, nil)
	srv.reg.meter.ObserveJob("mcf", "default", 5.0, nil)

	if resp, _ := submit(t, base, `{"app":"mcf","id":"slot"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slot submit: %d", resp.StatusCode)
	}
	awaitState(t, base, "slot", StateRunning, StateDone)
	if resp, _ := submit(t, base, `{"app":"tc","id":"cheap"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cheap submit: %d", resp.StatusCode)
	}

	// Expensive incoming beats cheap queued: cheap is shed, expensive admitted.
	resp, _ := submit(t, base, `{"app":"mcf","id":"expensive"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("expensive submit under pressure: got %d want 202", resp.StatusCode)
	}
	st := awaitState(t, base, "cheap", StateShed)
	if st.State != StateShed {
		t.Fatalf("cheap job state: %s, want shed", st.State)
	}
	if code, _ := fetchText(t, base+"/jobs/cheap/result"); code != http.StatusConflict {
		t.Fatalf("shed job result: status %d, want 409", code)
	}

	// Cheap incoming loses to expensive queued: 429, nothing shed.
	resp2, _ := submit(t, base, `{"app":"tc","id":"cheap2"}`)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cheap submit under pressure: got %d want 429", resp2.StatusCode)
	}

	_, metricsBody := fetchText(t, base+"/metrics")
	for _, want := range []string{`gminer_jobs_finished_total{state="shed"} 1`, `gminer_jobs_retained{state="shed"} 1`} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("shed terminal state missing from /metrics: no %s", want)
		}
	}
	cancelJob(t, base, "expensive")
	cancelJob(t, base, "slot")
}

// TestOverBudgetPreemptedAtRoundBoundary: a job whose measured compute
// spend exceeds its budget hint must be stopped via the cooperative
// cancel path with the distinct "preempted" terminal state.
func TestOverBudgetPreemptedAtRoundBoundary(t *testing.T) {
	ccfg := testClusterConfig()
	ccfg.Latency = 500 * time.Microsecond // slow rounds so the hook fires mid-job
	srv, base := startServer(t, ccfg, Config{ResultCacheEntries: -1})
	defer srv.Shutdown()

	resp, _ := submit(t, base, `{"app":"mcf","id":"burner","budget_seconds":0.0002}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	st := awaitState(t, base, "burner", StatePreempted, StateDone, StateFailed)
	if st.State != StatePreempted {
		t.Fatalf("job finished %s (%s), want preempted", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "budget") {
		t.Fatalf("preempted job error %q does not name the budget", st.Error)
	}
	if st.CostSeconds <= 0 {
		t.Fatalf("preempted job reports no measured cost: %v", st.CostSeconds)
	}
	if code, _ := fetchText(t, base+"/jobs/burner/result"); code != http.StatusConflict {
		t.Fatalf("preempted job result: status %d, want 409", code)
	}
	_, metricsBody := fetchText(t, base+"/metrics")
	for _, want := range []string{`gminer_jobs_finished_total{state="preempted"} 1`, `gminer_jobs_retained{state="preempted"} 1`} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("preempted terminal state missing from /metrics: no %s", want)
		}
	}
}

// TestJobsFinishedCounterSurvivesEviction: gminer_jobs_finished_total is a
// counter — every terminal transition, for the daemon's life — while
// gminer_jobs_retained is what the registry still answers for. Evicting a
// finished job lowers the gauge and never the counter. The first job
// computes; the rest are result-cache hits, born done, and each submit
// evicts down to the cap.
func TestJobsFinishedCounterSurvivesEviction(t *testing.T) {
	srv, base := startServer(t, testClusterConfig(), Config{MaxRetainedJobs: 2})
	defer srv.Shutdown()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("tc-%d", i)
		if resp, _ := submit(t, base, fmt.Sprintf(`{"app":"tc","id":%q}`, id)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d", id, resp.StatusCode)
		}
		awaitState(t, base, id, StateDone)
	}
	_, body := fetchText(t, base+"/metrics")
	for _, want := range []string{`gminer_jobs_finished_total{state="done"} 4`, `gminer_jobs_retained{state="done"} 2`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %s", want)
		}
	}
}

// TestQueuedDeadlineSheds: a job still queued when its deadline passes is
// shed at dispatch time instead of being started doomed.
func TestQueuedDeadlineSheds(t *testing.T) {
	sess, err := cluster.NewSession(servingGraph(), testClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	held := heldCluster{Session: sess, id: "slot", release: make(chan struct{})}
	srv := New(sess, Config{MaxConcurrentJobs: 1, ResultCacheEntries: -1})
	srv.reg.launch = held.Launch
	defer srv.Shutdown()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	if resp, _ := submit(t, base, `{"app":"mcf","id":"slot"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slot submit: %d", resp.StatusCode)
	}
	awaitState(t, base, "slot", StateRunning)
	if resp, _ := submit(t, base, `{"app":"tc","id":"late","deadline_seconds":0.01}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline submit: %d", resp.StatusCode)
	}
	time.Sleep(20 * time.Millisecond) // let the deadline lapse while queued
	cancelJob(t, base, "slot")        // free the slot; the pump must shed "late"
	close(held.release)
	st := awaitState(t, base, "late", StateShed)
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("shed job error %q does not name the deadline", st.Error)
	}
}

// heldCluster is a deterministic slot-holder: the mcf job launched under id
// parks before its first seed, so it occupies its slot for exactly as long
// as the test needs, however fast the engine finishes real jobs. A parked
// Seed call cannot see a stop: close release right after cancelling the job.
type heldCluster struct {
	*cluster.Session
	id      string
	release chan struct{}
}

func (h heldCluster) Launch(a core.Algorithm, opt cluster.JobOptions) (*cluster.Job, error) {
	if mc, ok := a.(*algo.MaxClique); ok && opt.ID == h.id {
		a = heldMaxClique{mc, h.release}
	}
	return h.Session.Launch(a, opt)
}

type heldMaxClique struct {
	*algo.MaxClique
	release <-chan struct{}
}

func (h heldMaxClique) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	<-h.release
	h.MaxClique.Seed(v, spawn)
}

// TestQueueWaitAndPositionInStatus: queued jobs expose a live queue wait
// and their per-tenant dispatch position; /metrics carries the tenant
// queue-depth gauge and wait summary.
func TestQueueWaitAndPositionInStatus(t *testing.T) {
	ccfg := testClusterConfig()
	ccfg.Latency = 2 * time.Millisecond // slot-holder must outlive the status probes below
	srv, base := startServer(t, ccfg, Config{MaxConcurrentJobs: 1, ResultCacheEntries: -1})
	defer srv.Shutdown()

	if resp, _ := submit(t, base, `{"app":"mcf","id":"slot"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slot submit: %d", resp.StatusCode)
	}
	for _, id := range []string{"q1", "q2"} {
		if resp, _ := submit(t, base, fmt.Sprintf(`{"app":"mcf","id":%q}`, id)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s submit: %d", id, resp.StatusCode)
		}
	}

	st := awaitState(t, base, "q2", StateQueued)
	if st.QueuePosition != 2 {
		t.Fatalf("q2 queue position: got %d want 2", st.QueuePosition)
	}
	if st.QueueWaitSeconds <= 0 {
		t.Fatalf("queued job reports no wait: %v", st.QueueWaitSeconds)
	}
	if st.CostEstimateSeconds <= 0 {
		t.Fatalf("queued job reports no cost estimate: %v", st.CostEstimateSeconds)
	}

	_, metricsBody := fetchText(t, base+"/metrics")
	if !strings.Contains(metricsBody, `gminer_jobs_queued{tenant="default"} 2`) {
		t.Fatal("per-tenant queue depth missing from /metrics")
	}
	if !strings.Contains(metricsBody, `gminer_job_queue_wait_seconds_count{tenant="default"} 1`) {
		t.Fatal("queue wait summary missing from /metrics (slot dispatch should have recorded one wait)")
	}

	for _, id := range []string{"q2", "q1", "slot"} {
		cancelJob(t, base, id)
	}
	// Cancelled queued jobs freeze their recorded wait.
	fin := awaitState(t, base, "q2", StateCancelled)
	if fin.QueueWaitSeconds <= 0 {
		t.Fatalf("cancelled queued job lost its recorded wait: %v", fin.QueueWaitSeconds)
	}
}
