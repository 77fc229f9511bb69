package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gminer/internal/metrics"
	"gminer/internal/trace"
)

type fakeSource struct {
	snaps []metrics.Snapshot
	done  bool
}

func (f *fakeSource) WorkerSnapshots() []metrics.Snapshot { return f.snaps }
func (f *fakeSource) Done() bool                          { return f.done }

func startServer(t *testing.T, src Source) (*Server, string) {
	t.Helper()
	s := New(src)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, addr
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestStatusJSON(t *testing.T) {
	src := &fakeSource{snaps: []metrics.Snapshot{
		{Busy: time.Second, NetBytes: 100, TasksDone: 5},
		{Busy: 2 * time.Second, NetBytes: 200, TasksDone: 7},
	}}
	_, addr := startServer(t, src)
	var st Status
	if err := json.Unmarshal([]byte(get(t, "http://"+addr+"/status")), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 2 || st.Done {
		t.Fatalf("status: %+v", st)
	}
	if st.Totals.TasksDone != 12 || st.Totals.NetBytes != 300 {
		t.Fatalf("totals: %+v", st.Totals)
	}
	if st.Workers[1].BusySeconds != 2.0 {
		t.Fatalf("worker 1: %+v", st.Workers[1])
	}
}

func TestHealthz(t *testing.T) {
	src := &fakeSource{}
	_, addr := startServer(t, src)
	if got := get(t, "http://"+addr+"/healthz"); !strings.Contains(got, "running") {
		t.Fatalf("healthz: %q", got)
	}
	src.done = true
	if got := get(t, "http://"+addr+"/healthz"); !strings.Contains(got, "done") {
		t.Fatalf("healthz after done: %q", got)
	}
}

func TestTextSummary(t *testing.T) {
	src := &fakeSource{snaps: []metrics.Snapshot{{TasksDone: 3}}}
	_, addr := startServer(t, src)
	got := get(t, "http://"+addr+"/")
	if !strings.Contains(got, "worker") || !strings.Contains(got, "total") {
		t.Fatalf("text: %q", got)
	}
}

func TestStopClosesListener(t *testing.T) {
	s, addr := startServer(t, &fakeSource{})
	s.Stop()
	if _, err := http.Get("http://" + addr + "/status"); err == nil {
		t.Fatal("server still reachable after Stop")
	}
}

// validatePromText is a line-oriented validator for the Prometheus text
// exposition format (0.0.4): every line must be a HELP/TYPE comment or a
// `name{labels} value` sample with a legal metric name; histogram buckets
// must be cumulative. Returns the parsed samples keyed by full series.
func validatePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	bucketCum := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: bare comment %q", ln+1, line)
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		series, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels %q", ln+1, series)
			}
		}
		for _, r := range name {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Fatalf("line %d: bad metric name %q", ln+1, name)
			}
		}
		if strings.HasSuffix(name, "_bucket") {
			if val < bucketCum[name] {
				t.Fatalf("line %d: %s buckets not cumulative", ln+1, name)
			}
			bucketCum[name] = val
		}
		samples[series] = val
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	src := &fakeSource{snaps: []metrics.Snapshot{
		{Busy: time.Second, NetBytes: 100, TasksDone: 5, CacheHits: 9, CacheMisses: 1, CacheOverflows: 3},
		{Busy: 2 * time.Second, NetBytes: 200, TasksDone: 7},
	}}
	_, addr := startServer(t, src)
	runtime.GC() // live heap is what the last cycle marked: have one
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := validatePromText(t, string(body))
	if samples[`gminer_tasks_done_total{worker="0"}`] != 5 {
		t.Fatalf("worker 0 tasks: %v", samples[`gminer_tasks_done_total{worker="0"}`])
	}
	if samples[`gminer_net_bytes_total{worker="1"}`] != 200 {
		t.Fatalf("worker 1 net bytes: %v", samples[`gminer_net_bytes_total{worker="1"}`])
	}
	if samples[`gminer_cache_overflows_total{worker="0"}`] != 3 {
		t.Fatalf("worker 0 cache overflows: %v", samples[`gminer_cache_overflows_total{worker="0"}`])
	}
	if samples["gminer_job_done"] != 0 {
		t.Fatalf("job done gauge: %v", samples["gminer_job_done"])
	}
	live, goal := samples["gminer_heap_live_bytes"], samples["gminer_heap_goal_bytes"]
	if live <= 0 || goal < live {
		t.Fatalf("heap gauges: live %v, goal %v (want 0 < live <= goal)", live, goal)
	}
}

func TestMetricsWithTracer(t *testing.T) {
	src := &fakeSource{snaps: []metrics.Snapshot{{TasksDone: 1}}, done: true}
	tr := trace.New(1, 8).Enable()
	h := tr.Handle(0, trace.CompExecutor)
	for i := 0; i < 10; i++ {
		h.Observe(trace.MetricTaskRound, time.Millisecond)
		h.Event(trace.EvTaskDead, 1)
	}
	s := New(src)
	s.SetTracer(tr)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	body := get(t, "http://"+addr+"/metrics")
	samples := validatePromText(t, body)
	if samples["gminer_task_round_seconds_count"] != 10 {
		t.Fatalf("histogram count: %v", samples["gminer_task_round_seconds_count"])
	}
	if samples[`gminer_task_round_seconds_bucket{le="+Inf"}`] != 10 {
		t.Fatalf("+Inf bucket: %v", samples[`gminer_task_round_seconds_bucket{le="+Inf"}`])
	}
	if samples[`gminer_trace_events_total{event="task_dead"}`] != 10 {
		t.Fatalf("event counter: %v", samples[`gminer_trace_events_total{event="task_dead"}`])
	}
	if samples["gminer_job_done"] != 1 {
		t.Fatalf("job done gauge: %v", samples["gminer_job_done"])
	}
}
