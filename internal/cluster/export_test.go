package cluster

import (
	"cmp"
	"slices"
	"time"

	"gminer/internal/graph"
)

// Knobs are the engine constants a test may shape a scenario with; a zero
// field keeps the default.
type Knobs struct {
	Heartbeat        time.Duration
	PullRetryBase    time.Duration
	StealBatch       int
	StealLocalityMax float64 // Tr; 2 lets every task migrate
}

// Tune sets cfg's engine constants to k's non-zero fields.
func Tune(cfg *Config, k Knobs) {
	cfg.progressInterval = cmp.Or(k.Heartbeat, cfg.progressInterval)
	cfg.pullRetryBase = cmp.Or(k.PullRetryBase, cfg.pullRetryBase)
	cfg.stealBatch = cmp.Or(k.StealBatch, cfg.stealBatch)
	cfg.stealLocalityMax = cmp.Or(k.StealLocalityMax, cfg.stealLocalityMax)
}

// HoldLastSeed is the deterministic hold of the fault-injection soaks: every
// worker built from cfg — in this process or a worker process started with
// it, first incarnation or replacement — seeds all but its last vertex, then
// waits for release to close. Until then the job has work pending on every
// slot and cannot finish under the test, whatever the engine's speed.
func HoldLastSeed(cfg *Config, release <-chan struct{}) { cfg.seedHold = release }

// DenseDirectory reports which arm the session's vertex directory took for
// the resident graph: the ID-indexed array, or the hash tables.
func (s *Session) DenseDirectory() bool { return s.tables.dir.dense() }

// dense reports which arm the directory took.
func (d *directory) dense() bool { return d.slots != nil }

// residentIDs lists the resident set of the view as its directory answers
// for it — the vertices a worker other than the owner reads in place —
// ascending; nil before the first job that mined the view (and with one
// worker, where nobody is another worker).
func (o *orientedView) residentIDs() []graph.VertexID {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.dir == nil || o.dir.assign.K < 2 {
		return nil
	}
	var ids []graph.VertexID
	o.g.ForEach(func(v *graph.Vertex) bool {
		if other := (o.dir.owner(v.ID) + 1) % o.dir.assign.K; o.dir.local(v.ID, other) != nil {
			ids = append(ids, v.ID)
		}
		return true
	})
	slices.Sort(ids)
	return ids
}

// residentCore sizes the view's resident core — its bit rows — and names it
// by its fingerprint; (0, 0) before the first job that mined the view, and on
// a view that offers none.
func (o *orientedView) residentCore() (rows int, fingerprint uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.core == nil {
		return 0, 0
	}
	return o.core.Rows(), o.core.Fingerprint()
}

// patchState reports how many rows the view's last cut cut (|V| for a full
// orientation) and how many touched vertices wait for the next one.
func (o *orientedView) patchState() (recut, pending int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.recut, len(o.pending)
}

// ResidentIDs is the resident set of the session's current oriented view.
func (s *Session) ResidentIDs() []graph.VertexID { return s.oriented.residentIDs() }

// ResidentIDs is the resident set of the process's oriented view.
func (wp *WorkerProcess) ResidentIDs() []graph.VertexID { return wp.oriented.residentIDs() }

// ResidentCore is the resident core of the session's current oriented view.
func (s *Session) ResidentCore() (rows int, fingerprint uint64) { return s.oriented.residentCore() }

// ResidentCore is the resident core of the process's oriented view.
func (wp *WorkerProcess) ResidentCore() (rows int, fingerprint uint64) {
	return wp.oriented.residentCore()
}
