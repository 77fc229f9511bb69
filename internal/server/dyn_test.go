package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gminer/internal/cluster"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
)

func dynServingGraph() *graph.Graph {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2500, Seed: 13})
	jobspec.Prepare(g, jobspec.Spec{App: "gm"}.Normalize())
	jobspec.Prepare(g, jobspec.Spec{App: "cd"}.Normalize())
	return g
}

// standingGraph is a planted-community attributed graph: unlike the RMAT
// serving graph, cd, qc and gc all find records on it, and a mutation
// stream keeps adding and retracting them.
func standingGraph() *graph.Graph {
	g, _ := gen.Community(gen.CommunityConfig{Communities: 30, MinSize: 6, MaxSize: 12, PIn: 0.7, Bridges: 80, AttrDim: 3, AttrRange: 3, Seed: 13})
	return g
}

// startDynServer brings up a daemon over a dynamic warm session.
func startDynServer(t *testing.T, scfg Config) (*Server, string) {
	t.Helper()
	return startDynServerOn(t, dynServingGraph(), scfg)
}

func startDynServerOn(t *testing.T, g *graph.Graph, scfg Config) (*Server, string) {
	t.Helper()
	ccfg := testClusterConfig()
	ccfg.Dynamic = true
	ccfg.Partitioner = partition.Blocked{Shift: 4}
	sess, err := cluster.NewSession(g, ccfg)
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

// mutate POSTs one batch and decodes the response.
func mutate(t *testing.T, base string, b dyngraph.Batch) (int, MutationResult) {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/graph/mutations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out MutationResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func resultRecords(t *testing.T, base, id string) JobResult {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d", id, resp.StatusCode)
	}
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

// TestResultCacheInvalidatedByEpoch is the cache regression for dynamic
// graphs: an identical resubmit hits the cache before a mutation and
// misses after it (the key carries the graph epoch), and the post-epoch
// result reflects the mutated graph.
func TestResultCacheInvalidatedByEpoch(t *testing.T) {
	srv, base := startDynServer(t, Config{MaxConcurrentJobs: 2})
	defer srv.Shutdown()

	spec := `{"app":"cd"}`
	_, st := submit(t, base, spec)
	awaitState(t, base, st.ID, StateDone)
	if st.GraphEpoch != 0 {
		t.Fatalf("first job stamped epoch %d, want 0", st.GraphEpoch)
	}
	before := resultRecords(t, base, st.ID)

	resp, st2 := submit(t, base, spec)
	if resp.StatusCode != http.StatusAccepted || !st2.Cached {
		t.Fatalf("identical resubmit at the same epoch not cache-served (status %d cached %v)",
			resp.StatusCode, st2.Cached)
	}

	code, mres := mutate(t, base, dyngraph.Batch{Ops: []dyngraph.Mutation{
		{Op: dyngraph.OpAddEdge, U: 2, W: 97},
		{Op: dyngraph.OpAddEdge, U: 3, W: 111},
	}})
	if code != http.StatusOK || mres.Epoch != 1 {
		t.Fatalf("mutation: status %d epoch %d", code, mres.Epoch)
	}

	_, st3 := submit(t, base, spec)
	done := awaitState(t, base, st3.ID, StateDone)
	if done.Cached {
		t.Fatal("resubmit AFTER a mutation was cache-served (stale epoch)")
	}
	if done.GraphEpoch != 1 {
		t.Fatalf("post-mutation job stamped epoch %d, want 1", done.GraphEpoch)
	}
	after := resultRecords(t, base, st3.ID)
	if reflect.DeepEqual(before.Records, after.Records) && before.Aggregate == after.Aggregate {
		// The two added edges touch communities; identical output would
		// mean the job saw the old graph.
		t.Log("warning: mutation did not change cd output (graph-dependent)")
	}

	// Epoch surfaces: /healthz and /metrics.
	_, health := fetchText(t, base+"/healthz")
	if !strings.Contains(health, `"graph_epoch":1`) {
		t.Fatalf("healthz missing graph_epoch=1: %s", health)
	}
	_, metricsOut := fetchText(t, base+"/metrics")
	if !strings.Contains(metricsOut, "gminer_graph_epoch 1") {
		t.Fatalf("metrics missing gminer_graph_epoch 1")
	}
}

// TestMutationsRequireDynamic: a static daemon answers 501 to mutations
// and standing submits.
func TestMutationsRequireDynamic(t *testing.T) {
	srv, base := startServer(t, testClusterConfig(), Config{})
	defer srv.Shutdown()

	code, _ := mutate(t, base, dyngraph.Batch{Ops: []dyngraph.Mutation{{Op: dyngraph.OpAddEdge, U: 0, W: 5}}})
	if code != http.StatusNotImplemented {
		t.Fatalf("mutation on static daemon: status %d, want 501", code)
	}
	resp, _ := submit(t, base, `{"app":"tc","standing":true}`)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("standing submit on static daemon: status %d, want 501", resp.StatusCode)
	}
}

// TestEpochPin: a spec pinned to a stale epoch is rejected with 409; a
// matching pin is admitted.
func TestEpochPin(t *testing.T) {
	srv, base := startDynServer(t, Config{})
	defer srv.Shutdown()

	if resp, _ := submit(t, base, `{"app":"tc","epoch":3}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale epoch pin: status %d, want 409", resp.StatusCode)
	}
	code, _ := mutate(t, base, dyngraph.Batch{Ops: []dyngraph.Mutation{{Op: dyngraph.OpAddEdge, U: 1, W: 60}}})
	if code != http.StatusOK {
		t.Fatalf("mutation: status %d", code)
	}
	resp, st := submit(t, base, `{"app":"tc","epoch":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("matching epoch pin: status %d, want 202", resp.StatusCode)
	}
	awaitState(t, base, st.ID, StateDone)
}

// applyDelta folds one delta document into a sorted match set.
func applyDelta(set []string, d DeltaDoc) []string {
	drop := make(map[string]bool, len(d.Retracted))
	for _, rec := range d.Retracted {
		drop[rec] = true
	}
	out := set[:0:0]
	for _, rec := range set {
		if !drop[rec] {
			out = append(out, rec)
		}
	}
	out = append(out, d.Added...)
	sort.Strings(out)
	return out
}

// TestStandingQueryDifferential is the server half of the differential
// gate, over all three arms a standing round can take: cd and qc declare a
// seed radius and are served dirty-rooted (two seed-restricted launches), gc
// declares none and recomputes in full, tc rolls its aggregate forward. At
// every epoch each record app's delta stream, folded into its baseline by a
// client, must equal a full ad-hoc recomputation and the set the server
// holds; tc's aggregate must equal a full recount. The stream carries all
// four op kinds, and one batch moves blocks between workers.
func TestStandingQueryDifferential(t *testing.T) {
	srv, base := startDynServerOn(t, standingGraph(), Config{MaxConcurrentJobs: 2})
	defer srv.Shutdown()

	// app → whether its rounds must be marked incremental.
	parked := []struct {
		app, id     string
		incremental bool
	}{{"cd", "stand-cd", true}, {"qc", "stand-qc", true}, {"gc", "stand-gc", false}}
	accum := make(map[string][]string)
	for _, p := range parked {
		submit(t, base, fmt.Sprintf(`{"app":%q,"minsim":0.5,"minsize":3,"standing":true,"id":%q}`, p.app, p.id))
		awaitState(t, base, p.id, StateStanding)
		// Baseline == ad-hoc result at epoch 0.
		accum[p.id] = append([]string(nil), resultRecords(t, base, p.id).Records...)
		sort.Strings(accum[p.id])
		if len(accum[p.id]) == 0 {
			t.Fatalf("%s: empty baseline: the gate would compare nothing", p.app)
		}
	}
	_, tcSt := submit(t, base, `{"app":"tc","standing":true,"id":"stand-tc"}`)
	awaitState(t, base, tcSt.ID, StateStanding)

	seed := standingGraph()
	batches := gen.Deltas(seed, gen.DeltasConfig{Batches: 8, Ops: 24, Seed: 5})
	// One more: a run of fresh vertices, external IDs far past the others,
	// wired in — new slots and blocks, placed on workers that then hold
	// different vertex sets.
	ids, ext := seed.IDs(), seed.External
	fresh := ext(ids[len(ids)-1]) + 1<<20
	var grow dyngraph.Batch
	for i := graph.VertexID(0); i < 40; i++ {
		grow.Ops = append(grow.Ops,
			dyngraph.Mutation{Op: dyngraph.OpAddVertex, ID: fresh + i, Attrs: seed.VertexAt(int(i)).Attrs},
			dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: fresh + i, W: ext(ids[i])},
			dyngraph.Mutation{Op: dyngraph.OpAddEdge, U: fresh + i, W: ext(ids[i+1])})
	}
	batches = append(batches, grow)
	kinds := map[string]bool{}
	moved, changed := 0, map[string]int{}
	for bi, b := range batches {
		for _, m := range b.Ops {
			kinds[m.Op] = true
		}
		code, mres := mutate(t, base, b)
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", bi, code)
		}
		if mres.Epoch != int64(bi+1) {
			t.Fatalf("batch %d: epoch %d", bi, mres.Epoch)
		}
		moved += mres.MovedBlocks
		if len(mres.Standing) != len(parked)+1 {
			t.Fatalf("batch %d: %d standing rounds, want %d", bi, len(mres.Standing), len(parked)+1)
		}
		deltas := make(map[string]*DeltaDoc)
		for i := range mres.Standing {
			deltas[mres.Standing[i].JobID] = &mres.Standing[i]
		}

		for _, p := range parked {
			d := deltas[p.id]
			if d == nil {
				t.Fatalf("batch %d: no %s round", bi, p.app)
			}
			if d.Incremental != p.incremental {
				t.Fatalf("batch %d: %s round incremental=%v, want %v", bi, p.app, d.Incremental, p.incremental)
			}
			changed[p.app] += len(d.Added) + len(d.Retracted)
			// Client-side reconstruction from the delta...
			accum[p.id] = applyDelta(accum[p.id], *d)
			// ...must equal a full ad-hoc recomputation at this epoch.
			_, snapSt := submit(t, base, fmt.Sprintf(`{"app":%q,"minsim":0.5,"minsize":3,"id":"snap-%s-%d"}`, p.app, p.app, bi))
			awaitState(t, base, snapSt.ID, StateDone)
			full := append([]string(nil), resultRecords(t, base, snapSt.ID).Records...)
			sort.Strings(full)
			if !reflect.DeepEqual(accum[p.id], full) {
				t.Fatalf("batch %d: reconstructed %s set (%d) != full recompute (%d)",
					bi, p.app, len(accum[p.id]), len(full))
			}
			if d.Matches != len(full) {
				t.Fatalf("batch %d: %s delta says %d matches, the full recompute has %d", bi, p.app, d.Matches, len(full))
			}
			// The server-side accumulated result must agree too.
			servedNow := append([]string(nil), resultRecords(t, base, p.id).Records...)
			sort.Strings(servedNow)
			if !reflect.DeepEqual(servedNow, full) {
				t.Fatalf("batch %d: server-side standing %s set diverged from full recompute", bi, p.app)
			}
		}

		// tc: incremental aggregate == full recount.
		tcDelta := deltas["stand-tc"]
		if tcDelta == nil || !tcDelta.Incremental {
			t.Fatalf("batch %d: tc round missing or not dirty-rooted incremental (%v)", bi, tcDelta)
		}
		_, tcSnap := submit(t, base, fmt.Sprintf(`{"app":"tc","id":"snap-tc-%d"}`, bi))
		awaitState(t, base, tcSnap.ID, StateDone)
		fullTC := resultRecords(t, base, tcSnap.ID)
		if tcDelta.Aggregate != fullTC.Aggregate {
			t.Fatalf("batch %d: incremental tc %s != full recount %s",
				bi, tcDelta.Aggregate, fullTC.Aggregate)
		}
	}
	for _, op := range []string{dyngraph.OpAddEdge, dyngraph.OpDelEdge, dyngraph.OpAddVertex, dyngraph.OpDelVertex} {
		if !kinds[op] {
			t.Errorf("the stream has no %s", op)
		}
	}
	if moved == 0 {
		t.Error("no batch moved a block between workers")
	}
	for _, p := range parked {
		if changed[p.app] == 0 {
			t.Errorf("%s: no record was ever added or retracted: the fold was not exercised", p.app)
		}
	}

	// Each arm is counted under its own mode.
	_, metrics := fetchText(t, base+"/metrics")
	for _, want := range []string{
		fmt.Sprintf(`gminer_standing_rounds_total{mode="incremental"} %d`, 3*len(batches)),
		fmt.Sprintf(`gminer_standing_rounds_total{mode="full"} %d`, len(batches)),
		`gminer_standing_rounds_total{mode="fallback"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// Both halves of a dirty-rooted round are metered, apart from the
	// app's own jobs (whose estimate prices ad-hoc admissions).
	apps, _ := srv.reg.meter.Snapshot()
	launches := map[string]int64{}
	for _, ac := range apps {
		launches[ac.App] = ac.Jobs
	}
	for _, app := range []string{"cd/delta", "qc/delta"} {
		if launches[app] != int64(2*len(batches)) {
			t.Errorf("meter saw %d %s launches, want %d", launches[app], app, 2*len(batches))
		}
	}
	if launches["gc/delta"] != 0 || launches["gc"] != int64(1+2*len(batches)) {
		t.Errorf("meter saw %d gc/delta and %d gc jobs, want 0 and %d", launches["gc/delta"], launches["gc"], 1+2*len(batches))
	}

	// Status carries the standing view.
	st := awaitState(t, base, "stand-cd", StateStanding)
	if st.GraphEpoch != int64(len(batches)) || st.DeltaRounds != len(batches) {
		t.Fatalf("standing status: epoch %d rounds %d, want %d/%d",
			st.GraphEpoch, st.DeltaRounds, len(batches), len(batches))
	}

	// DELETE ends the subscription.
	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/stand-cd", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	awaitState(t, base, "stand-cd", StateCancelled)
}

// TestStandingFallback: the dirty-rooted identity presumes the parked set is
// the app's output on the old graph. When what the old graph mines around
// the batch is not in the set, the round must notice, serve the epoch from a
// full recompute (still exact), and count it — once; the repaired set then
// goes back to incremental rounds.
func TestStandingFallback(t *testing.T) {
	srv, base := startDynServerOn(t, standingGraph(), Config{})
	defer srv.Shutdown()
	const spec = `"app":"cd","minsim":0.5,"minsize":3`
	submit(t, base, `{`+spec+`,"standing":true,"id":"stand-cd"}`)
	awaitState(t, base, "stand-cd", StateStanding)

	// Corrupt the parked set behind the server's back.
	srv.reg.mu.Lock()
	j := srv.reg.jobs["stand-cd"]
	lost := len(j.matchSet)
	j.matchSet = nil
	srv.reg.mu.Unlock()
	if lost == 0 {
		t.Fatal("empty baseline: nothing to corrupt")
	}

	batches := gen.Deltas(standingGraph(), gen.DeltasConfig{Batches: 2, Ops: 24, Seed: 5})
	for bi, wantIncremental := range []bool{false, true} {
		code, mres := mutate(t, base, batches[bi])
		if code != http.StatusOK || len(mres.Standing) != 1 {
			t.Fatalf("batch %d: status %d, %d rounds", bi, code, len(mres.Standing))
		}
		if d := mres.Standing[0]; d.Incremental != wantIncremental {
			t.Fatalf("batch %d: incremental=%v, want %v", bi, d.Incremental, wantIncremental)
		}
		_, snapSt := submit(t, base, fmt.Sprintf(`{`+spec+`,"id":"snap-%d"}`, bi))
		awaitState(t, base, snapSt.ID, StateDone)
		full := append([]string(nil), resultRecords(t, base, snapSt.ID).Records...)
		sort.Strings(full)
		served := resultRecords(t, base, "stand-cd").Records
		if len(full) == 0 || !reflect.DeepEqual(served, full) {
			t.Fatalf("batch %d: served set (%d records) != full recompute (%d)", bi, len(served), len(full))
		}
		_, metrics := fetchText(t, base+"/metrics")
		for _, want := range []string{
			`gminer_standing_rounds_total{mode="fallback"} 1`,
			fmt.Sprintf(`gminer_standing_rounds_total{mode="incremental"} %d`, bi),
		} {
			if !strings.Contains(metrics, want) {
				t.Fatalf("batch %d: /metrics lacks %q", bi, want)
			}
		}
	}
}

// TestDeltasStream: the NDJSON stream opens with a snapshot and carries
// each subsequent epoch's delta; folding them reconstructs the exact
// match set.
func TestDeltasStream(t *testing.T) {
	srv, base := startDynServer(t, Config{})
	defer srv.Shutdown()

	_, st := submit(t, base, `{"app":"cd","standing":true,"id":"watch-cd"}`)
	awaitState(t, base, st.ID, StateStanding)

	resp, err := http.Get(base + "/jobs/watch-cd/deltas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	if !sc.Scan() {
		t.Fatal("stream closed before snapshot")
	}
	var snap snapshotDoc
	if err := json.Unmarshal(sc.Bytes(), &snap); err != nil || snap.Type != "snapshot" {
		t.Fatalf("first line not a snapshot: %v %q", err, sc.Text())
	}
	set := append([]string(nil), snap.Records...)
	sort.Strings(set)

	seed := dynServingGraph()
	batches := gen.Deltas(seed, gen.DeltasConfig{Batches: 2, Ops: 16, Seed: 9})
	go func() {
		// No t.Fatal off the test goroutine; a failed POST surfaces as a
		// stream timeout below.
		for _, b := range batches {
			body, err := json.Marshal(b)
			if err != nil {
				return
			}
			resp, err := http.Post(base+"/graph/mutations", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()

	for i := 0; i < len(batches); i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d deltas: %v", i, sc.Err())
		}
		var d DeltaDoc
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil || d.Type != "delta" {
			t.Fatalf("line %d not a delta: %v %q", i, err, sc.Text())
		}
		if d.Epoch != snap.Epoch+int64(i)+1 {
			t.Fatalf("delta %d at epoch %d, want %d", i, d.Epoch, snap.Epoch+int64(i)+1)
		}
		set = applyDelta(set, d)
		if len(set) != d.Matches {
			t.Fatalf("delta %d: reconstructed %d records, doc says %d", i, len(set), d.Matches)
		}
	}

	// Reconstruction matches the server's accumulated set.
	served := append([]string(nil), resultRecords(t, base, "watch-cd").Records...)
	sort.Strings(served)
	if !reflect.DeepEqual(set, served) {
		t.Fatal("client reconstruction diverged from server-side match set")
	}
}
