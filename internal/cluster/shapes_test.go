package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
)

// host is where a test session's workers live.
type host struct {
	name           string
	tcp, processes bool
}

// The three hosts: goroutines over the in-process network, goroutines over
// loopback TCP, and WorkerProcesses joined to a coordinator.
var (
	goroutines    = host{name: "goroutines"}
	goroutinesTCP = host{name: "goroutines-tcp", tcp: true}
	processes     = host{name: "processes", processes: true}
	hosts         = []host{goroutines, goroutinesTCP, processes}
)

// openSession opens a session over g whose workers live on h, closed when
// the test ends. Worker processes heartbeat every 20 ms and keep their
// snapshot files under a temporary directory each, and their coordinator
// waits up to 240 s for a finished job's records.
func openSession(t *testing.T, g *graph.Graph, cfg cluster.Config, h host) *cluster.Session {
	t.Helper()
	if h.processes {
		s, _ := remoteTestCluster(t, g, cfg, cluster.ResultTimeout(240*time.Second),
			cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond, CheckpointDir: t.TempDir()})
		return s
	}
	cfg.UseTCP = h.tcp
	s, err := cluster.NewSession(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestShapesByteIdentical is the cross-shape differential: a seeded graph
// and each of the eight apps through every way a job can be launched —
// one-shot Run over the in-process network and over loopback TCP, then a
// warm session on every host, launched twice and once more generic (no
// plan, no oriented view, no resident set) — must yield byte-identical
// records and aggregate. There is one launch path under all of them, so a
// divergence here is a host or transport bug, not a second engine's. MCF is
// held to its aggregate only: which records it emits depends on when the
// global best reaches each worker. Each graph runs twice: as
// generated, whose dense IDs put every lookup on the vertex directory's
// array arm, and on a copy with the IDs strided apart, which takes the
// hash-table arm; the two must agree on every aggregate and record count
// (the records name the IDs).
func TestShapesByteIdentical(t *testing.T) {
	community, _ := gen.Community(gen.CommunityConfig{
		Communities: 15, MinSize: 6, MaxSize: 10, PIn: 0.7, Bridges: 150, Seed: 23,
	})
	byArm := map[bool]map[string]*cluster.Result{true: {}, false: {}}
	for _, set := range []struct {
		g     *graph.Graph
		specs []jobspec.Spec
	}{
		{servingGraph(t), []jobspec.Spec{
			{App: "tc"},
			{App: "mcf"},
			{App: "gm"},
			{App: "gl3"},
			{App: "qc", MinSim: 0.5, MinSize: 3},
			{App: "fsm"},
			{App: "cd", MinSim: 0.2, MinSize: 3},
		}},
		// GC grows clusters around vertex 0's attributes: it needs
		// communities whose members' attributes agree.
		{community, []jobspec.Spec{{App: "gc", MinSize: 3}}},
	} {
		for _, g := range []*graph.Graph{set.g, sparseIDs(set.g)} {
			shapesByteIdentical(t, g, g == set.g, set.specs, byArm[g == set.g])
		}
	}
	for app, d := range byArm[true] {
		s := byArm[false][app]
		if s == nil || fmt.Sprint(d.AggGlobal) != fmt.Sprint(s.AggGlobal) || (app != "mcf" && len(d.Records) != len(s.Records)) {
			t.Fatalf("%s: array arm %v and %d records, hash-table arm %+v", app, d.AggGlobal, len(d.Records), s)
		}
	}
}

// shapesByteIdentical runs each spec on g through every shape, filing the
// first shape's result by app in refs.
func shapesByteIdentical(t *testing.T, g *graph.Graph, dense bool, specs []jobspec.Spec, refs map[string]*cluster.Result) {
	cfg := smallConfig()
	sessions := make([]*cluster.Session, len(hosts))
	for i, h := range hosts {
		sessions[i] = openSession(t, g, cfg, h)
	}
	if sessions[0].DenseDirectory() != dense {
		t.Fatalf("vertex directory dense=%v on the graph with dense IDs=%v", sessions[0].DenseDirectory(), dense)
	}
	for _, sp := range specs {
		sp := sp.Normalize()
		t.Run(fmt.Sprintf("%s/dense=%v", sp.App, dense), func(t *testing.T) {
			type shape struct {
				name string
				run  func() (*cluster.Result, error)
			}
			oneShot := func(tcp bool) func() (*cluster.Result, error) {
				return func() (*cluster.Result, error) {
					a, _ := jobspec.Build(g, sp)
					cfg := cfg
					cfg.UseTCP = tcp
					return cluster.Run(g, a, cfg)
				}
			}
			shapes := []shape{{"run", oneShot(false)}, {"run-tcp", oneShot(true)}}
			for i, h := range hosts {
				launch := func(sp jobspec.Spec) func() (*cluster.Result, error) {
					return func() (*cluster.Result, error) {
						a, _ := jobspec.Build(g, sp)
						j, err := sessions[i].Launch(a, cluster.JobOptions{Spec: &sp})
						if err != nil {
							return nil, err
						}
						return j.Wait()
					}
				}
				generic := sp
				generic.Generic = true
				// A second launch reruns the workload on the warm cluster.
				shapes = append(shapes, shape{h.name, launch(sp)}, shape{h.name + "-rerun", launch(sp)},
					shape{h.name + "-generic", launch(generic)})
			}
			var want string
			var wantTasks int64
			for i, sh := range shapes {
				res, err := sh.run()
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				got := joinRecords(res)
				if sp.App == "mcf" {
					got = fmt.Sprint(res.AggGlobal)
				}
				generic := strings.HasSuffix(sh.name, "-generic")
				if i == 0 {
					want, wantTasks = got, res.Total.TasksDone
					refs[sp.App] = res
					if len(res.Records) == 0 && res.AggGlobal == nil {
						t.Fatal("degenerate reference: no records and no aggregate")
					}
				} else if got != want {
					t.Fatalf("%s diverges from %s:\ngot:  %.200q\nwant: %.200q", sh.name, shapes[0].name, got, want)
				}
				if sp.App != "tc" {
					continue
				}
				// Triangle counting runs on G⁺ with its hottest lists
				// resident on every worker: the same tasks, the same count.
				if !generic && res.Total.TasksDone != wantTasks {
					t.Fatalf("%s ran %d tasks, %s %d", sh.name, res.Total.TasksDone, shapes[0].name, wantTasks)
				}
				if generic != (res.ResidentLists == 0) {
					t.Fatalf("%s: %d resident lists", sh.name, res.ResidentLists)
				}
			}
			if sp.App == "tc" {
				a, _ := jobspec.Build(g, sp)
				if seq := algo.SeqRun(g, a); fmt.Sprintf("agg=%v\n", seq.AggGlobal) != want || seq.Tasks != wantTasks {
					t.Fatalf("SeqRun: %v in %d tasks; the engine: %q in %d", seq.AggGlobal, seq.Tasks, want, wantTasks)
				}
			}
		})
	}
	for i, s := range sessions {
		if n := s.ActiveJobs(); n != 0 {
			t.Fatalf("%s: %d jobs active after every Wait", hosts[i].name, n)
		}
		s.Close()
	}
}
