package trace

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Metric names one latency histogram the tracer maintains.
type Metric uint8

const (
	// MetricTaskRound is one executor update round (§4.3 compute stage).
	MetricTaskRound Metric = iota
	// MetricPullRTT is request-to-response latency of one pulled vertex.
	MetricPullRTT
	// MetricSpillIO is one task-store block write or load.
	MetricSpillIO
	// MetricMigration is thief-side steal latency: REQ sent → batch recv.
	MetricMigration
	// MetricCheckpoint is one worker checkpoint (quiesce + dump).
	MetricCheckpoint

	// NumMetrics is the number of metrics, not one of them.
	NumMetrics
)

// String returns the metric's snake_case name.
func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return "unknown"
}

var metricNames = [NumMetrics]string{
	MetricTaskRound:  "task_round",
	MetricPullRTT:    "pull_rtt",
	MetricSpillIO:    "spill_io",
	MetricMigration:  "migration",
	MetricCheckpoint: "checkpoint",
}

// metricComponents maps each metric to the pipeline component it measures
// (the "component" column of the CLI summary and DESIGN.md's §4.3 map).
var metricComponents = [NumMetrics]Component{
	MetricTaskRound:  CompExecutor,
	MetricPullRTT:    CompRetriever,
	MetricSpillIO:    CompSpill,
	MetricMigration:  CompSteal,
	MetricCheckpoint: CompCheckpoint,
}

// histBuckets covers 1ns .. ~9min in power-of-two buckets: bucket b holds
// samples whose nanosecond value has bit length b, i.e. [2^(b-1), 2^b).
// Bucket 0 holds zero-duration samples; the last bucket is a catch-all.
const histBuckets = 40

// Histogram is a lock-free power-of-two-bucket latency histogram. The
// zero value is ready to use. Its count is the sum of its buckets, so an
// observation is two atomic adds and a snapshot's count always agrees
// with its buckets.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// Observe adds one sample.
func (h *Histogram) Observe(d time.Duration) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	b := bits.Len64(uint64(n))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.sum.Add(n)
}

// merge adds o's samples to h.
func (h *Histogram) merge(o *Histogram) {
	for b := range o.buckets {
		if n := o.buckets[b].Load(); n != 0 {
			h.buckets[b].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	var n int64
	for b := range h.buckets {
		n += h.buckets[b].Load()
	}
	return n
}

// Sum returns the summed duration of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Buckets returns a copy of the raw bucket counts.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketBounds returns the value range [lo, hi) of bucket b.
func BucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 1
	}
	return 1 << (b - 1), 1 << b
}

// Quantile returns the q-quantile (q in [0,1]) with linear interpolation
// inside the winning bucket. With no samples it returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var seen float64
	for b := 0; b < histBuckets; b++ {
		n := float64(h.buckets[b].Load())
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := BucketBounds(b)
			frac := (rank - seen) / n
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		seen += n
	}
	lo, _ := BucketBounds(histBuckets - 1)
	return time.Duration(lo)
}

// PhaseSummary is the percentile digest of one pipeline phase; a slice of
// these rides on cluster.Result and is printed by the CLI on exit.
type PhaseSummary struct {
	Metric    string        `json:"metric"`
	Component string        `json:"component"`
	Count     int64         `json:"count"`
	P50       time.Duration `json:"p50"`
	P95       time.Duration `json:"p95"`
	P99       time.Duration `json:"p99"`
	Total     time.Duration `json:"total"`
}

// Summary digests every non-empty histogram, merged over the shards, into
// per-phase percentiles.
func (t *Tracer) Summary() []PhaseSummary {
	if t == nil {
		return nil
	}
	var out []PhaseSummary
	for m := Metric(0); m < NumMetrics; m++ {
		h := t.Histogram(m)
		n := h.Count()
		if n == 0 {
			continue
		}
		out = append(out, PhaseSummary{
			Metric:    m.String(),
			Component: metricComponents[m].String(),
			Count:     n,
			P50:       h.Quantile(0.50),
			P95:       h.Quantile(0.95),
			P99:       h.Quantile(0.99),
			Total:     h.Sum(),
		})
	}
	return out
}

// FormatSummary renders phase summaries as an aligned text table.
func FormatSummary(phases []PhaseSummary) string {
	if len(phases) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-11s %10s %12s %12s %12s %12s\n",
		"phase", "component", "count", "p50", "p95", "p99", "total")
	for _, p := range phases {
		fmt.Fprintf(&b, "%-12s %-11s %10d %12s %12s %12s %12s\n",
			p.Metric, p.Component, p.Count,
			fmtDur(p.P50), fmtDur(p.P95), fmtDur(p.P99), fmtDur(p.Total))
	}
	return b.String()
}

// fmtDur rounds a duration to a readable precision for the table.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	default:
		return d.String()
	}
}
