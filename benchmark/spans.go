package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark from outside the layer.
type span struct {
	name       string
	start, end time.Time
	parent     int    // index of the span that caused this one, -1 for a root
	job        string // spans of one job share its id
}

// recorder keeps the traced run's spans in memory until the run ends. A
// nil *recorder is tracing off: every method is a no-op, so the timed
// sections of the end-to-end runs carry no tracing work.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index (-1 with tracing off).
func (r *recorder) begin(name string, parent int, job string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: time.Now(), parent: parent, job: job})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// tag names the job a span belongs to once its id is known.
func (r *recorder) tag(id int, job string) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].job = job
	r.mu.Unlock()
}

// time records fn as one span and returns how long it took.
func (r *recorder) time(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, parent, "")
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every closed span as Chrome trace JSON. Each root
// span and its descendants share a track, so the ladder reads top to
// bottom and each served job reads left to right.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans recorded")
	}
	origin := spans[0].start
	track := make([]int, len(spans))
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		track[i] = i
		if s.parent >= 0 {
			track[i] = track[s.parent]
		}
		if s.end.IsZero() {
			continue
		}
		args := map[string]any{"span": i, "parent": s.parent}
		if s.job != "" {
			args["job"] = s.job
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: track[i],
			Ts:   float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	buf, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
