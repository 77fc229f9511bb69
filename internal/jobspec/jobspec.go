// Package jobspec translates a serialisable job specification (algorithm
// name plus parameters) into a runnable core.Algorithm. The single-shot
// CLI and the job server share it, so a job submitted over HTTP runs
// exactly the algorithm the equivalent command line would — which is what
// makes the serving-mode byte-identical guarantee checkable.
package jobspec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
)

// Spec names one mining workload. It is the JSON body of POST /jobs and
// the distilled form of the CLI's algorithm flags.
type Spec struct {
	// App selects the application: tc, mcf, gm, cd, gc, gl3, qc, fsm.
	App string `json:"app"`
	// Labels is the label alphabet size used when Prepare must assign
	// labels to an unlabeled graph (gm, fsm). Default 7.
	Labels int32 `json:"labels,omitempty"`
	// Pattern is the gm pattern as "labels;parents", e.g.
	// "0,1,2,1,3;-1,0,0,2,2". Empty selects the paper's Figure 1 pattern.
	Pattern string `json:"pattern,omitempty"`
	// MinSim is the cd/gc/qc similarity or density threshold. Default 0.6.
	MinSim float64 `json:"minsim,omitempty"`
	// MinSize is the cd/gc/qc minimum community size. Default 4.
	MinSize int `json:"minsize,omitempty"`
	// Split is the mcf recursive task-split threshold; 0 disables.
	Split int `json:"split,omitempty"`
	// Seed overrides the label/attribute assignment seed used by Prepare
	// on graphs that lack them; 0 keeps the CLI defaults (labels: 1,
	// attrs: 2). It never affects an already-labeled graph, so jobs on a
	// serving daemon's resident graph ignore it.
	Seed int64 `json:"seed,omitempty"`
	// Standing subscribes the job to the dynamic graph: after the baseline
	// run, the job stays resident and emits a delta (new/retracted
	// matches) per graph epoch on GET /jobs/{id}/deltas. Requires a
	// dynamic-enabled daemon. Standing results are never cache-served.
	Standing bool `json:"standing,omitempty"`
	// Epoch pins the job to a graph epoch: if > 0, the server rejects the
	// submission unless the resident graph is at exactly this epoch — the
	// optimistic-concurrency guard for clients that must not compute
	// against a graph that mutated since they last looked. 0 accepts any.
	Epoch int64 `json:"epoch,omitempty"`

	// Serving-side QoS hints (internal/qos). They shape when and whether
	// a job runs — never what it computes — so CacheKey excludes them.

	// Tenant attributes the job to one tenant for weighted-fair
	// scheduling, spend metering and per-tenant metrics. Empty
	// normalizes to "default". Same charset as job IDs.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the tenant-share weight of this job in the admission
	// queue: a tenant dequeues at Priority× the rate of priority-1 work
	// at equal cost. Normalized into [1, MaxPriority].
	Priority int `json:"priority,omitempty"`
	// DeadlineSeconds is a completion deadline measured from submission:
	// a job still queued past it is shed; a running one is stopped at
	// the next round boundary. 0 means none.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// BudgetSeconds caps the job's compute spend (busy thread-seconds
	// summed over workers); an over-budget job is preempted at the next
	// round boundary. 0 inherits the server default (possibly unlimited).
	BudgetSeconds float64 `json:"budget_seconds,omitempty"`
}

// MaxPriority bounds the Priority weight so one tenant cannot claim an
// effectively infinite share.
const MaxPriority = 16

// Apps lists the valid App values.
func Apps() []string { return []string{"tc", "mcf", "gm", "cd", "gc", "gl3", "qc", "fsm"} }

// Normalize fills defaulted fields and canonicalises App. It is
// idempotent and deterministic (FuzzNormalizeStable): two specs that
// differ only in default-vs-explicit values normalize identically, which
// is what makes the normalized spec usable as a cache key.
func (s Spec) Normalize() Spec {
	s.App = strings.ToLower(strings.TrimSpace(s.App))
	if s.Labels <= 0 {
		s.Labels = 7
	}
	if s.MinSim <= 0 || math.IsNaN(s.MinSim) {
		s.MinSim = 0.6
	}
	if s.MinSize <= 0 {
		s.MinSize = 4
	}
	s.Tenant = strings.TrimSpace(s.Tenant)
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Priority <= 0 {
		s.Priority = 1
	}
	if s.Priority > MaxPriority {
		s.Priority = MaxPriority
	}
	if math.IsNaN(s.DeadlineSeconds) {
		s.DeadlineSeconds = 0
	}
	if math.IsNaN(s.BudgetSeconds) {
		s.BudgetSeconds = 0
	}
	return s
}

// CacheKey is the canonical identity of the workload for result caching:
// every field that changes what is computed, and none that only changes
// when or for whom it runs (tenant, priority, deadline, budget). Two
// specs with equal CacheKeys on the same resident graph produce
// byte-identical results.
func (s Spec) CacheKey() string {
	n := s.Normalize()
	return fmt.Sprintf("app=%s|labels=%d|pattern=%s|minsim=%g|minsize=%d|split=%d|seed=%d|standing=%t|epoch=%d",
		n.App, n.Labels, n.Pattern, n.MinSim, n.MinSize, n.Split, n.Seed, n.Standing, n.Epoch)
}

// Validate checks the normalised spec without needing a graph.
func (s Spec) Validate() error {
	ok := false
	for _, a := range Apps() {
		if s.App == a {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("jobspec: unknown app %q (want one of %s)", s.App, strings.Join(Apps(), ", "))
	}
	if s.MinSim < 0 || s.MinSim > 1 {
		return fmt.Errorf("jobspec: minsim %v outside [0,1]", s.MinSim)
	}
	if s.MinSize < 1 {
		return fmt.Errorf("jobspec: minsize %d < 1", s.MinSize)
	}
	if s.Split < 0 {
		return fmt.Errorf("jobspec: split %d < 0", s.Split)
	}
	if s.Pattern != "" {
		if s.App != "gm" {
			return fmt.Errorf("jobspec: pattern is only valid for app gm")
		}
		if _, err := ParsePattern(s.Pattern); err != nil {
			return err
		}
	}
	if len(s.Tenant) > 64 {
		return fmt.Errorf("jobspec: tenant longer than 64 bytes")
	}
	for _, r := range s.Tenant {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '-' || r == '_' || r == '.' {
			continue
		}
		// The tenant becomes a Prometheus label and a log token; keep it
		// to the same safe charset as job IDs.
		return fmt.Errorf("jobspec: tenant may only contain [a-zA-Z0-9._-], got %q", s.Tenant)
	}
	if s.Priority < 0 {
		return fmt.Errorf("jobspec: priority %d < 0", s.Priority)
	}
	if s.DeadlineSeconds < 0 || math.IsInf(s.DeadlineSeconds, 0) {
		return fmt.Errorf("jobspec: deadline_seconds %v outside [0, +inf)", s.DeadlineSeconds)
	}
	if s.BudgetSeconds < 0 || math.IsInf(s.BudgetSeconds, 0) {
		return fmt.Errorf("jobspec: budget_seconds %v outside [0, +inf)", s.BudgetSeconds)
	}
	if s.Epoch < 0 {
		return fmt.Errorf("jobspec: epoch %d < 0", s.Epoch)
	}
	return nil
}

// needsLabels/needsAttrs: which vertex annotations the app consumes.
func (s Spec) needsLabels() bool { return s.App == "gm" || s.App == "fsm" }
func (s Spec) needsAttrs() bool  { return s.App == "cd" || s.App == "gc" }

// Prepare mutates g so Build can succeed: it assigns labels or attributes
// when the app needs them and the graph has none, reproducing the CLI's
// historical defaults. A long-lived server must call Prepare for every
// app family ONCE at startup (the graph is shared by concurrent jobs and
// must never be mutated per job); per-job paths use Build alone.
func Prepare(g *graph.Graph, s Spec) {
	s = s.Normalize()
	if s.needsLabels() && !g.Labeled() {
		seed := s.Seed
		if seed == 0 {
			seed = 1
		}
		gen.AssignLabels(g, s.Labels, seed)
	}
	if s.needsAttrs() && !g.Attributed() {
		seed := s.Seed
		if seed == 0 {
			seed = 2
		}
		gen.AssignAttrs(g, 5, 10, seed)
	}
}

// Build constructs the algorithm for a normalised, validated spec. It
// never mutates g: a graph missing required labels or attributes is an
// error here (Prepare, on a path that owns the graph, fixes that).
func Build(g *graph.Graph, s Spec) (core.Algorithm, error) {
	s = s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.needsLabels() && !g.Labeled() {
		return nil, fmt.Errorf("jobspec: app %s needs a labeled graph (serving graph was loaded without labels)", s.App)
	}
	if s.needsAttrs() && !g.Attributed() {
		return nil, fmt.Errorf("jobspec: app %s needs an attributed graph (serving graph was loaded without attributes)", s.App)
	}
	switch s.App {
	case "tc":
		return algo.NewTriangleCount(), nil
	case "mcf":
		mc := algo.NewMaxClique()
		mc.SplitThreshold = s.Split
		return mc, nil
	case "gm":
		p := algo.FigurePattern()
		if s.Pattern != "" {
			var err error
			p, err = ParsePattern(s.Pattern)
			if err != nil {
				return nil, err
			}
		}
		return algo.NewGraphMatch(p), nil
	case "gl3":
		return algo.NewGraphletCensus(), nil
	case "qc":
		return algo.NewQuasiClique(s.MinSim, s.MinSize), nil
	case "fsm":
		return algo.NewFreqSubgraph(int64(s.MinSize) * 25), nil
	case "cd":
		return algo.NewCommunityDetect(s.MinSim, s.MinSize), nil
	case "gc":
		var exemplar []int32 // the attributes of the vertex with the smallest ID
		g.ForEach(func(v *graph.Vertex) bool {
			exemplar = v.Attrs
			return false
		})
		return algo.NewGraphCluster([][]int32{exemplar}, 0.8, 0.3, s.MinSize), nil
	}
	return nil, fmt.Errorf("jobspec: unknown app %q", s.App) // unreachable after Validate
}

// ParsePattern parses a gm pattern "l0,l1,...;p0,p1,...".
func ParsePattern(spec string) (*algo.Pattern, error) {
	parts := strings.SplitN(spec, ";", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("jobspec: pattern must be 'labels;parents'")
	}
	var labels []int32
	for _, s := range strings.Split(parts[0], ",") {
		x, err := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("jobspec: pattern label: %w", err)
		}
		labels = append(labels, int32(x))
	}
	var parents []int
	for _, s := range strings.Split(parts[1], ",") {
		x, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("jobspec: pattern parent: %w", err)
		}
		parents = append(parents, x)
	}
	return algo.NewPattern(labels, parents)
}
