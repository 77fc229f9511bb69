package server

import (
	"fmt"
	"log"
	"slices"
	"sort"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/dyngraph"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
)

// Standing mining queries (§13). A job submitted with "standing": true
// runs its baseline through the normal admission path, then — instead of
// going terminal — parks in the "standing" state holding its match set.
// Every mutation batch afterwards triggers one delta round per standing
// job, run synchronously inside POST /graph/mutations (under the server's
// mutation mutex), so by the time the mutation response is written every
// standing job's match set reflects the new epoch. A delta round produces
// the per-epoch added/retracted record sets a `gminer watch` client folds
// into its snapshot.
//
// A round costs what the batch touched. An algorithm that declares how far
// a seed's task reads (core.Plan.SeedRadius r) has a match set that is a
// union of per-seed record sets, and a batch with dirty vertices D can change
// only the seeds in B = Ball(G, D, r) ∪ D (dyngraph.Ball has the argument),
// so
//
//	set' = set − mine(G, B) + mine(G', B)
//
// where mine(·, B) is an engine job seeded at B alone: the first launch runs
// on the old graph before the batch lands, the second after. Triangle
// counting, whose seeds move with the orientation rank, uses the same
// identity on its aggregate through dyngraph.TrianglesTouching and launches
// nothing. Everything else (gc grows without bound, mcf prunes on a global
// best) recomputes on the warm session and merge-diffs the sorted sets —
// the arm the differential gate holds the other two to.

// DeltaDoc is one epoch's output for one standing job: the records that
// appeared, the records that vanished, and the aggregate movement. It is
// both an element of the GET /jobs/{id}/deltas NDJSON stream and part of
// the POST /graph/mutations response.
type DeltaDoc struct {
	Type  string `json:"type"` // "delta" on the wire
	JobID string `json:"job_id"`
	Epoch int64  `json:"epoch"`
	// Added and Retracted are sorted record sets; a client holding the
	// previous epoch's match set reconstructs the new one exactly.
	Added     []string `json:"added"`
	Retracted []string `json:"retracted"`
	// Matches is the match-set size after this epoch.
	Matches int `json:"matches"`
	// Aggregate / PrevAggregate carry aggregate movement for
	// aggregate-producing workloads (tc), formatted like JobResult's.
	Aggregate     string `json:"aggregate,omitempty"`
	PrevAggregate string `json:"prev_aggregate,omitempty"`
	// Incremental marks a round served by the dirty-rooted path instead of
	// a full recomputation.
	Incremental    bool    `json:"incremental,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// snapshotDoc heads the deltas stream: the full match set at the epoch
// the subscriber attached, so reconstruction needs no other endpoint.
type snapshotDoc struct {
	Type      string   `json:"type"` // "snapshot"
	JobID     string   `json:"job_id"`
	Epoch     int64    `json:"epoch"`
	Records   []string `json:"records"`
	Aggregate string   `json:"aggregate,omitempty"`
}

// Which arm served a round, as gminer_standing_rounds_total's mode label.
const (
	roundIncremental = "incremental" // dirty-rooted: tc's identity, or two seed-restricted launches
	roundFull        = "full"        // the app declares no radius: whole-graph recompute
	roundFallback    = "fallback"    // dirty-rooted premise broke this epoch: recomputed, and logged
)

// standingPre is what one batch's rounds read off the OLD graph, before the
// batch lands: per-batch values computed once and shared by every standing
// job, and each dirty-rooted record job's pre-launch.
type standingPre struct {
	dirty []graph.VertexID
	// touching is TrianglesTouching(G, dirty), feeding tc's
	//
	//	count' = count − touching(G, dirty) + touching(G', dirty)
	//
	// exact because every changed edge has an endpoint in dirty. Computed
	// if some tc job stands.
	touching    int64
	hasTouching bool
	// reach is B by radius; mined the pre-launches by job id.
	reach map[int][]graph.VertexID
	mined map[string]preMine
}

// preMine is mine(G, B) for one standing job.
type preMine struct {
	seeds   []graph.VertexID
	records []string // sorted
	elapsed time.Duration
}

// reachOf returns B = Ball(G, dirty, r) ∪ dirty, sorted. The dirty IDs G
// does not hold yet are in it because the batch may create them.
func (p *standingPre) reachOf(g *graph.Graph, r int) []graph.VertexID {
	if b, ok := p.reach[r]; ok {
		return b
	}
	b := append(dyngraph.Ball(g, p.dirty, r), p.dirty...)
	slices.Sort(b)
	b = slices.Compact(b)
	p.reach[r] = b
	return b
}

// localRadius reports whether a's standing rounds can be dirty-rooted, and
// at what radius: its plan declares one, and its output is records alone (an
// aggregate over a seed subset is not the job's).
func localRadius(a core.Algorithm) (int, bool) {
	r := core.PlanOf(a).SeedRadius
	if _, agg := a.(core.AggregatorProvider); r <= 0 || agg {
		return 0, false
	}
	return r, true
}

// standingIDs snapshots the ids of jobs currently parked standing.
func (r *registry) standingIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []string
	for _, id := range r.order {
		if j := r.jobs[id]; j != nil && j.state == StateStanding {
			ids = append(ids, id)
		}
	}
	return ids
}

// mine builds and runs one engine job of a standing query on the resident
// graph — seeded at seeds alone, or with nil seeds the whole workload — and charges
// its compute to the tenant, so standing queries pay their way in the QoS
// ledger. A seed-restricted launch is metered under "<app>/delta": it is a
// small fraction of a job and must not drag down the per-app estimate that
// prices ad-hoc admissions.
func (r *registry) mine(jobID string, spec jobspec.Spec, tenant string, seeds []graph.VertexID) (*cluster.Result, error) {
	a, err := jobspec.Build(r.sess.Graph(), spec)
	if err != nil {
		return nil, err
	}
	cj, err := r.launch(a, cluster.JobOptions{ID: jobID, Seeds: seeds})
	if err != nil {
		return nil, err
	}
	res, err := cj.Wait()
	if err != nil {
		return nil, err
	}
	var cost float64
	for _, snap := range res.PerWorker {
		cost += snap.CostSeconds()
	}
	app := spec.App
	if seeds != nil {
		app += "/delta"
	}
	r.meter.ObserveJob(app, tenant, cost, resPhases(res))
	return res, nil
}

// standingPrepare reads the pre-mutation values the standing rounds of one
// batch need. Called by the mutation handler (under its mutation mutex)
// with the batch decoded but NOT yet applied. A pre-launch that cannot run
// is simply left out: that job's round then recomputes in full.
func (r *registry) standingPrepare(dirty []graph.VertexID) standingPre {
	pre := standingPre{dirty: dirty, reach: make(map[int][]graph.VertexID), mined: make(map[string]preMine)}
	type parked struct {
		id, tenant string
		spec       jobspec.Spec
	}
	var jobs []parked
	r.mu.Lock()
	for _, id := range r.order {
		if j := r.jobs[id]; j != nil && j.state == StateStanding {
			jobs = append(jobs, parked{id, j.tenant, j.req.Spec})
		}
	}
	r.mu.Unlock()

	g, next := r.sess.Graph(), r.sess.GraphEpoch()+1
	for _, pj := range jobs {
		if pj.spec.App == "tc" {
			if !pre.hasTouching {
				r.sess.WithGraphRead(func() { pre.touching = dyngraph.TrianglesTouching(g, dirty) })
				pre.hasTouching = true
			}
			continue
		}
		started := time.Now()
		a, err := jobspec.Build(g, pj.spec) // only asked its radius; each launch builds its own
		if err != nil {
			continue
		}
		radius, ok := localRadius(a)
		if !ok {
			continue
		}
		var seeds []graph.VertexID
		r.sess.WithGraphRead(func() { seeds = pre.reachOf(g, radius) })
		res, err := r.mine(fmt.Sprintf("%s.e%d.pre", pj.id, next), pj.spec, pj.tenant, seeds)
		if err != nil {
			continue
		}
		records := append([]string(nil), res.Records...)
		sort.Strings(records)
		pre.mined[pj.id] = preMine{seeds: seeds, records: records, elapsed: time.Since(started)}
	}
	return pre
}

// runStandingRounds runs one delta round for every standing job at the
// freshly applied epoch. The caller holds the server's mutation mutex, so
// rounds are serialized against other mutations.
func (r *registry) runStandingRounds(epoch int64, pre standingPre) []DeltaDoc {
	var docs []DeltaDoc
	for _, id := range r.standingIDs() {
		doc, err := r.standingRound(id, epoch, pre)
		if err != nil {
			// A round that cannot compute (e.g. the mutation stripped the
			// labels the spec needs) fails the standing job rather than
			// silently gapping its stream.
			r.mu.Lock()
			if j := r.jobs[id]; j != nil && j.state == StateStanding {
				r.terminateLocked(j, StateFailed, err)
				j.bumpDeltas()
				r.cond.Broadcast()
			}
			r.mu.Unlock()
			continue
		}
		docs = append(docs, doc)
	}
	return docs
}

// standingRound computes one job's delta at one epoch. ElapsedSeconds
// covers both halves of a dirty-rooted round: the pre-launch on the old
// graph and everything here.
func (r *registry) standingRound(id string, epoch int64, pre standingPre) (DeltaDoc, error) {
	r.mu.Lock()
	j := r.jobs[id]
	if j == nil || j.state != StateStanding {
		r.mu.Unlock()
		return DeltaDoc{}, fmt.Errorf("server: job %s no longer standing", id)
	}
	spec := j.req.Spec
	prevSet := j.matchSet
	prevAgg := j.aggregate
	tenant := j.tenant
	r.mu.Unlock()

	started := time.Now()
	doc := DeltaDoc{Type: "delta", JobID: id, Epoch: epoch}
	mode := roundFull
	var elapsed time.Duration
	var newSet []string
	var newAgg any
	pm, mined := pre.mined[id]
	switch {
	case spec.App == "tc" && pre.hasTouching:
		// No cluster launch: count the triangles touching the dirty set on
		// the new graph and roll the previous aggregate forward. tc emits no
		// records, so the match set stays empty.
		prev, isInt := prevAgg.(int64)
		if !isInt {
			return DeltaDoc{}, fmt.Errorf("server: standing tc job %s has no integer aggregate", id)
		}
		var post int64
		r.sess.WithGraphRead(func() {
			post = dyngraph.TrianglesTouching(r.sess.Graph(), pre.dirty)
		})
		newAgg = prev - pre.touching + post
		mode = roundIncremental
		doc.Added, doc.Retracted = []string{}, []string{}
	case mined:
		res, err := r.mine(fmt.Sprintf("%s.e%d", id, epoch), spec, tenant, pm.seeds)
		if err != nil {
			return DeltaDoc{}, err
		}
		post := append([]string(nil), res.Records...)
		sort.Strings(post)
		elapsed = pm.elapsed
		var ok bool
		if newSet, ok = foldDelta(prevSet, pm.records, post); ok {
			mode = roundIncremental
			doc.Added, doc.Retracted = diffSorted(pm.records, post)
		} else {
			// What the old graph mines at B is not in the parked set: the
			// set is not this app's output on G, so the identity has no
			// premise. Serve this epoch from a recompute.
			mode = roundFallback
		}
	}
	if mode != roundIncremental {
		res, err := r.mine(fmt.Sprintf("%s.e%d", id, epoch), spec, tenant, nil)
		if err != nil {
			return DeltaDoc{}, err
		}
		newSet = append([]string(nil), res.Records...)
		sort.Strings(newSet)
		newAgg = res.AggGlobal
		doc.Added, doc.Retracted = diffSorted(prevSet, newSet)
	}

	doc.Incremental = mode == roundIncremental
	doc.Matches = len(newSet)
	doc.ElapsedSeconds = (elapsed + time.Since(started)).Seconds()
	if newAgg != nil {
		doc.Aggregate = fmt.Sprintf("%v", newAgg)
	}
	if prevAgg != nil {
		doc.PrevAggregate = fmt.Sprintf("%v", prevAgg)
	}

	r.mu.Lock()
	if j.state == StateStanding {
		j.matchSet = newSet
		j.aggregate = newAgg
		j.baseEpoch = epoch
		j.epoch = epoch
		j.deltas = append(j.deltas, doc)
		if j.result != nil {
			// Keep GET /jobs/{id}/result serving the CURRENT accumulated
			// match set, not the baseline's.
			res := *j.result
			res.Records = newSet
			res.AggGlobal = newAgg
			j.result = &res
		}
		j.bumpDeltas()
		r.standingRounds[mode]++
		if mode == roundFallback && !j.fallbackLogged {
			j.fallbackLogged = true
			log.Printf("server: standing job %s (%s): epoch %d: records mined on the old graph are missing from the parked set; "+
				"serving this epoch from a full recompute (further fallbacks of this job are only counted)", id, spec.App, epoch)
		}
	}
	r.mu.Unlock()
	return doc, nil
}

// foldDelta returns set − pre + post over sorted multisets of records, in
// one pass, and false if pre is not contained in set.
func foldDelta(set, pre, post []string) ([]string, bool) {
	if len(pre) > len(set) {
		return nil, false
	}
	out := make([]string, 0, len(set)-len(pre)+len(post))
	p, q := 0, 0
	for _, rec := range set {
		if p < len(pre) {
			if pre[p] < rec {
				return nil, false
			}
			if pre[p] == rec {
				p++
				continue
			}
		}
		for q < len(post) && post[q] < rec {
			out = append(out, post[q])
			q++
		}
		out = append(out, rec)
	}
	if p < len(pre) {
		return nil, false
	}
	return append(out, post[q:]...), true
}

// diffSorted merge-diffs two sorted string sets into (added, retracted).
// Both outputs are non-nil so they serialize as [] rather than null.
func diffSorted(prev, next []string) (added, retracted []string) {
	added, retracted = []string{}, []string{}
	i, k := 0, 0
	for i < len(prev) && k < len(next) {
		switch {
		case prev[i] == next[k]:
			i++
			k++
		case prev[i] < next[k]:
			retracted = append(retracted, prev[i])
			i++
		default:
			added = append(added, next[k])
			k++
		}
	}
	retracted = append(retracted, prev[i:]...)
	added = append(added, next[k:]...)
	return added, retracted
}

// bumpDeltas wakes every deltas-stream subscriber. Callers hold r.mu.
func (j *job) bumpDeltas() {
	if j.notify != nil {
		close(j.notify)
	}
	j.notify = make(chan struct{})
}
