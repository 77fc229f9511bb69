package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"gminer/internal/dyngraph"
)

// dyngraphDecode parses a POST /graph/mutations body into a validated
// batch (size- and op-clamped by DecodeBatch).
func dyngraphDecode(r *http.Request) (dyngraph.Batch, error) {
	defer func() { _ = r.Body.Close() }()
	return dyngraph.DecodeBatch(r.Body)
}

// writeNDJSON emits one stream document and flushes it to the client;
// false means the connection is gone.
func writeNDJSON(w http.ResponseWriter, v any) bool {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return false
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return true
}

// deltaPollFallback bounds how long a deltas stream sleeps before
// re-checking job state. The notify channel wakes it immediately on the
// common paths; the ticker covers rare settle paths that do not bump it.
const deltaPollFallback = 500 * time.Millisecond

// handleMutate is POST /graph/mutations: decode one batch, apply it as
// one epoch on the warm session, retire the result cache, then run every
// standing job's delta round — all under mutMu, so concurrent mutation
// POSTs serialize and the response describes a settled state. Running
// ad-hoc jobs are not disturbed: the session's epoch lock waits for their
// read leases before the graph moves.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if !s.sess.Dynamic() {
		writeErr(w, http.StatusNotImplemented,
			fmt.Errorf("%w: start gminerd with -dynamic", ErrNotDynamic))
		return
	}
	b, err := dyngraphDecode(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	s.mutMu.Lock()
	defer s.mutMu.Unlock()

	// Pre-reads on the old graph: the dirty-rooted identities need what the
	// batch's reach holds BEFORE the batch lands.
	pre := s.reg.standingPrepare(b.DirtyIDs(s.sess.Graph()))

	epr, err := s.sess.ApplyMutations(b)
	if err != nil {
		// The batch was syntactically valid but semantically rejected
		// (e.g. it would empty the graph): conflict, nothing changed.
		writeErr(w, http.StatusConflict, err)
		return
	}
	// Every cached result now describes a dead epoch. The epoch in the
	// cache key already makes them unreachable; dropping them returns the
	// memory immediately.
	s.reg.invalidateCache()

	rounds := s.reg.runStandingRounds(epr.Epoch, pre)

	out := MutationResult{
		Epoch:          epr.Epoch,
		Stats:          epr.Stats,
		DirtyBlocks:    epr.DirtyBlocks,
		MovedBlocks:    epr.MovedBlocks,
		RebuiltWorkers: epr.RebuiltWorkers,
		ApplySeconds:   epr.ApplyTime.Seconds(),
		Standing:       rounds,
	}
	writeJSON(w, out)
}

// handleDeltas is GET /jobs/{id}/deltas: an NDJSON stream opening with a
// snapshot of the standing job's current match set, followed by one delta
// document per graph epoch until the job ends or the client disconnects.
// A client folds added/retracted into the snapshot to track the exact
// match set without recomputing anything.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	j, err := s.reg.get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !j.req.Spec.Standing {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("server: job %s is not a standing query", j.id))
		return
	}

	// Wait out the baseline: the stream only makes sense once there is a
	// match set to snapshot.
	for {
		s.reg.mu.Lock()
		state := j.state
		ch := j.notify
		s.reg.mu.Unlock()
		if state != StateQueued && state != StateRunning {
			break
		}
		if !waitBump(r, ch) {
			return
		}
	}

	s.reg.mu.Lock()
	state := j.state
	snap := snapshotDoc{
		Type:    "snapshot",
		JobID:   j.id,
		Epoch:   j.baseEpoch,
		Records: append([]string{}, j.matchSet...),
	}
	if j.aggregate != nil {
		snap.Aggregate = fmt.Sprintf("%v", j.aggregate)
	}
	// The snapshot reflects every delta so far; the stream resumes after
	// them.
	idx := len(j.deltas)
	jerr := j.err
	s.reg.mu.Unlock()

	if state != StateStanding {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job %s is %s: %v", j.id, state, jerr))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if !writeNDJSON(w, snap) {
		return
	}

	for {
		s.reg.mu.Lock()
		pending := append([]DeltaDoc(nil), j.deltas[idx:]...)
		idx = len(j.deltas)
		state = j.state
		ch := j.notify
		s.reg.mu.Unlock()
		for _, d := range pending {
			if !writeNDJSON(w, d) {
				return
			}
		}
		if state != StateStanding {
			return
		}
		if !waitBump(r, ch) {
			return
		}
	}
}

// waitBump sleeps until the job's notify channel closes, the fallback
// ticker fires, or the client goes away (returns false).
func waitBump(r *http.Request, ch <-chan struct{}) bool {
	if ch == nil {
		ch = make(chan struct{}) // pre-baseline; rely on the fallback
	}
	select {
	case <-ch:
		return true
	case <-time.After(deltaPollFallback):
		return true
	case <-r.Context().Done():
		return false
	}
}
