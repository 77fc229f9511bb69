package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.EventsEnabled() {
		t.Fatal("nil tracer reports enabled")
	}
	h := tr.Handle(3, CompExecutor)
	h.Event(EvTaskSeed, 1)
	h.Span(EvTaskActive, time.Now(), 1)
	h.Observe(MetricTaskRound, time.Millisecond)
	h.ObserveSpan(MetricTaskRound, EvTaskActive, time.Millisecond, 1)
	if h.Active() {
		t.Fatal("nil-backed handle reports active")
	}
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer events: %v", got)
	}
	if tr.Summary() != nil {
		t.Fatal("nil tracer summary non-nil")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := New(2, 16)
	h := tr.Handle(0, CompCache)
	h.Event(EvCacheHit, 7)
	h.Observe(MetricPullRTT, time.Millisecond)
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("disabled tracer recorded %d events", n)
	}
	if tr.EventCount(EvCacheHit) != 0 {
		t.Fatal("disabled tracer counted an event")
	}
	if tr.Histogram(MetricPullRTT).Count() != 0 {
		t.Fatal("disabled tracer recorded a sample")
	}
}

func TestEnabledWithoutEventsCountsButNoRing(t *testing.T) {
	tr := New(2, 16).Enable()
	h := tr.Handle(1, CompCache)
	h.Event(EvCacheMiss, 9)
	h.Observe(MetricPullRTT, 2*time.Millisecond)
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("events recorded without EnableEvents: %d", n)
	}
	if tr.EventCount(EvCacheMiss) != 1 {
		t.Fatalf("event count = %d, want 1", tr.EventCount(EvCacheMiss))
	}
	if tr.Histogram(MetricPullRTT).Count() != 1 {
		t.Fatal("histogram sample missing")
	}
}

// TestHistogramOnlyTracerHoldsNoRing: ring buffers are allocated by
// EnableEvents, so a tracer that only feeds histograms and counters (every
// served job's) costs a few hundred bytes, not nodes x 65 536 events.
func TestHistogramOnlyTracerHoldsNoRing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := New(3, 0).Enable()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("New allocated %d bytes; the rings must be lazy", got)
	}
	for w := 0; w < 3; w++ {
		h := tr.Handle(w, CompExecutor)
		h.Event(EvTaskDead, 1)
		h.ObserveSpan(MetricTaskRound, EvTaskActive, time.Millisecond, 1)
	}
	for i, r := range tr.rings {
		if r.buf != nil {
			t.Fatalf("ring %d allocated without EnableEvents", i)
		}
	}
	if tr.Events() != nil {
		t.Fatal("a never-used ring must snapshot to nil")
	}
	if tr.EventCount(EvTaskDead) != 3 || tr.Histogram(MetricTaskRound).Count() != 3 {
		t.Fatal("counters and histograms must record without a ring")
	}
	tr.EnableEvents()
	tr.Handle(1, CompExecutor).Event(EvTaskDead, 2)
	for i, r := range tr.rings {
		if len(r.buf) != DefaultRingCapacity {
			t.Fatalf("ring %d holds %d events after EnableEvents", i, len(r.buf))
		}
	}
	if evs := tr.Events(); len(evs) != 1 || evs[0].Worker != 1 {
		t.Fatalf("events after enabling: %+v", evs)
	}
}

func TestEventCaptureAndAttribution(t *testing.T) {
	tr := New(3, 64).EnableEvents()
	tr.Handle(0, CompSeeder).Event(EvTaskSeed, 42)
	tr.Handle(2, CompExecutor).Span(EvTaskActive, time.Now().Add(-time.Millisecond), 42)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Worker != 0 || evs[0].Comp != CompSeeder || evs[0].Type != EvTaskSeed || evs[0].Arg != 42 {
		t.Fatalf("event 0: %+v", evs[0])
	}
	if evs[1].Worker != 2 || evs[1].Dur <= 0 {
		t.Fatalf("span event: %+v", evs[1])
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	tr := New(1, 8).EnableEvents()
	h := tr.Handle(0, CompNet)
	for i := 0; i < 20; i++ {
		h.Event(EvNetSend, uint64(i))
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(12 + i); e.Arg != want {
			t.Fatalf("event %d arg = %d, want %d (oldest-first order)", i, e.Arg, want)
		}
	}
	if tr.EventCount(EvNetSend) != 20 {
		t.Fatalf("event counter = %d, want 20 despite overwrite", tr.EventCount(EvNetSend))
	}
}

func TestHandleWorkerClamping(t *testing.T) {
	tr := New(2, 8).EnableEvents()
	tr.Handle(-5, CompNet).Event(EvNetSend, 1)
	tr.Handle(99, CompNet).Event(EvNetSend, 2)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Worker != 0 || evs[1].Worker != 1 {
		t.Fatalf("clamping failed: %+v", evs)
	}
}

func TestConcurrentEmission(t *testing.T) {
	tr := New(4, 1024).EnableEvents()
	var wg sync.WaitGroup
	const perWorker = 500
	for w := 0; w < 4; w++ {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := tr.Handle(w, CompExecutor)
				for i := 0; i < perWorker; i++ {
					h.Event(EvTaskDead, uint64(i))
					h.Observe(MetricTaskRound, time.Duration(i)*time.Microsecond)
				}
			}(w)
		}
	}
	wg.Wait()
	if got := tr.EventCount(EvTaskDead); got != 4*3*perWorker {
		t.Fatalf("event count = %d, want %d", got, 4*3*perWorker)
	}
	if got := tr.Histogram(MetricTaskRound).Count(); got != 4*3*perWorker {
		t.Fatalf("histogram count = %d", got)
	}
	if got := len(tr.Events()); got != 4*1024 {
		t.Fatalf("ring snapshot = %d events, want full rings (%d)", got, 4*1024)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	// 1000 samples uniform on [1ms, 1000ms]: p50 ≈ 500ms within one
	// power-of-two bucket (coarse by design).
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count %d", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 250*time.Millisecond || p50 > time.Second {
		t.Fatalf("p50 = %v, want within bucket of 500ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 2*time.Second {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Quantile(1) < h.Quantile(0) {
		t.Fatal("quantiles not monotone")
	}
	if h.Sum() <= 0 {
		t.Fatal("sum not recorded")
	}
}

func TestHistogramNegativeAndHugeSamples(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamps to 0
	h.Observe(1 << 62)      // beyond last bucket: catch-all
	h.Observe(0)            // zero bucket
	if h.Count() != 3 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(0.99); q <= 0 {
		t.Fatalf("catch-all quantile = %v", q)
	}
}

func TestSummaryAndFormat(t *testing.T) {
	tr := New(1, 8).Enable()
	h := tr.Handle(0, CompExecutor)
	for i := 0; i < 100; i++ {
		h.Observe(MetricTaskRound, time.Millisecond)
	}
	h.Observe(MetricSpillIO, 3*time.Millisecond)
	sum := tr.Summary()
	if len(sum) != 2 {
		t.Fatalf("summary has %d phases, want 2 (empty histograms skipped): %+v", len(sum), sum)
	}
	if sum[0].Metric != "task_round" || sum[0].Component != "executor" || sum[0].Count != 100 {
		t.Fatalf("phase 0: %+v", sum[0])
	}
	if sum[0].P50 <= 0 || sum[0].P95 < sum[0].P50 || sum[0].P99 < sum[0].P95 {
		t.Fatalf("percentiles not ordered: %+v", sum[0])
	}
	table := FormatSummary(sum)
	for _, want := range []string{"phase", "task_round", "spill_io", "p50", "p99"} {
		if !strings.Contains(table, want) {
			t.Fatalf("summary table missing %q:\n%s", want, table)
		}
	}
	if FormatSummary(nil) != "" {
		t.Fatal("empty summary should format to empty string")
	}
}

// TestChromeTraceSchema checks the dump is valid JSON in the Chrome
// trace-event format: a traceEvents array whose entries carry the
// required name/ph/ts/pid/tid fields, with metadata naming every track —
// the invariants Perfetto's importer needs.
func TestChromeTraceSchema(t *testing.T) {
	tr := New(2, 64).EnableEvents()
	tr.Handle(0, CompSeeder).Event(EvTaskSeed, 1)
	tr.Handle(0, CompExecutor).Span(EvTaskActive, time.Now().Add(-2*time.Millisecond), 1)
	tr.Handle(1, CompCache).Event(EvCacheHit, 5)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawMeta, sawInstant, sawComplete bool
	for _, e := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
		switch e["ph"] {
		case "M":
			sawMeta = true
		case "i":
			sawInstant = true
			if e["s"] != "t" {
				t.Fatalf("instant event missing thread scope: %v", e)
			}
		case "X":
			sawComplete = true
			if _, ok := e["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", e)
			}
			if ts, ok := e["ts"].(float64); !ok || ts < 0 {
				t.Fatalf("complete event bad ts: %v", e)
			}
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if !sawMeta || !sawInstant || !sawComplete {
		t.Fatalf("missing event kinds: meta=%v instant=%v complete=%v", sawMeta, sawInstant, sawComplete)
	}
}

// TestShardedRecordingMatchesOneHandle is the shards' differential gate:
// one multiset of events and observations, recorded once through a single
// handle and once spread over every (worker, component) handle on
// concurrent goroutines, must read back identically — Summary, every
// histogram's buckets and sum, and every event count. A reader that
// skipped a shard, or a shard that lost a write, shows here.
func TestShardedRecordingMatchesOneHandle(t *testing.T) {
	const workers, perPair = 3, 400
	type op struct {
		m   Metric
		typ EventType
		d   time.Duration
	}
	// ops[w][c] is pair (w, c)'s share; the durations spread over many
	// buckets so the merged percentiles are worth comparing.
	ops := make([][][]op, workers)
	seed := uint64(0x9e3779b97f4a7c15)
	for w := range ops {
		ops[w] = make([][]op, numComponents)
		for c := range ops[w] {
			for i := 0; i < perPair; i++ {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				ops[w][c] = append(ops[w][c], op{
					m:   Metric(seed % uint64(NumMetrics)),
					typ: EventType(1 + seed%uint64(NumEventTypes-1)),
					d:   time.Duration(seed>>40) * time.Nanosecond,
				})
			}
		}
	}
	record := func(h Handle, o op, i int) {
		switch i % 3 {
		case 0:
			h.ObserveSpan(o.m, o.typ, o.d, uint64(i))
		case 1:
			h.Observe(o.m, o.d)
			h.Event(o.typ, uint64(i))
		default:
			h.Observe(o.m, o.d)
			h.Span(o.typ, time.Now().Add(-o.d), uint64(i))
		}
	}

	one := New(workers+1, 0).Enable()
	h := one.Handle(0, CompExecutor)
	for w := range ops {
		for c := range ops[w] {
			for i, o := range ops[w][c] {
				record(h, o, i)
			}
		}
	}

	sharded := New(workers+1, 0).Enable()
	var wg sync.WaitGroup
	for w := range ops {
		for c := range ops[w] {
			wg.Add(1)
			go func(w, c int) {
				defer wg.Done()
				h := sharded.Handle(w, Component(c))
				for i, o := range ops[w][c] {
					record(h, o, i)
				}
			}(w, c)
		}
	}
	wg.Wait()

	if got, want := sharded.Summary(), one.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded summary differs:\n got %+v\nwant %+v", got, want)
	}
	for m := Metric(0); m < NumMetrics; m++ {
		g, w := sharded.Histogram(m), one.Histogram(m)
		if g.Buckets() != w.Buckets() || g.Sum() != w.Sum() || g.Count() == 0 {
			t.Fatalf("%s: sharded buckets %v sum %v, one handle %v sum %v", m, g.Buckets(), g.Sum(), w.Buckets(), w.Sum())
		}
	}
	for typ := EventType(1); typ < NumEventTypes; typ++ {
		if g, w := sharded.EventCount(typ), one.EventCount(typ); g != w || g == 0 {
			t.Fatalf("%s: sharded count %d, one handle %d", typ, g, w)
		}
	}
}

// TestEnableKeepsEventCapture: Enable after EnableEvents leaves the rings
// on, and every Handle for one (worker, component) pair shares its shard.
func TestEnableKeepsEventCapture(t *testing.T) {
	tr := New(2, 16).EnableEvents().Enable()
	h := tr.Handle(1, CompExecutor)
	h.Event(EvTaskDead, 1)
	if !tr.EventsEnabled() || len(tr.Events()) != 1 || tr.EventCount(EvTaskDead) != 1 {
		t.Fatal("Enable after EnableEvents must keep ring capture and counting on")
	}
	if tr.Handle(1, CompExecutor) != h || tr.Handle(0, CompExecutor) == h {
		t.Fatal("one shard per (worker, component) pair")
	}
}
