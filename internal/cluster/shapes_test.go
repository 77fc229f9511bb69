package cluster_test

import (
	"fmt"
	"slices"
	"strconv"
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
// warm session on every host, launched twice (and TC once more on each
// goroutine host on its undirected arm: no oriented view, no resident set)
// — must yield byte-identical records and aggregate. There is one launch path under all of them, so a
// divergence here is a host or transport bug, not a second engine's. MCF is
// held to its aggregate only: which records it emits depends on when the
// global best reaches each worker. Each graph runs twice: as generated, and
// on a copy with its external IDs strided far apart, whose records must be
// the first run's with every ID relabelled — IDs cross into the engine and
// back out only at the boundary.
func TestShapesByteIdentical(t *testing.T) {
	community, _ := gen.Community(gen.CommunityConfig{
		Communities: 15, MinSize: 6, MaxSize: 10, PIn: 0.7, Bridges: 150, Seed: 23,
	})
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
		strided, relabel := cluster.StridedIDs(set.g)
		byIDs := map[bool]map[string]*cluster.Result{true: {}, false: {}}
		shapesByteIdentical(t, set.g, true, set.specs, byIDs[true])
		shapesByteIdentical(t, strided, false, set.specs, byIDs[false])
		for app, d := range byIDs[true] {
			s := byIDs[false][app]
			if s == nil || fmt.Sprint(d.AggGlobal) != fmt.Sprint(s.AggGlobal) {
				t.Fatalf("%s: aggregate %v as generated, strided %+v", app, d.AggGlobal, s)
			}
			if app == "mcf" {
				continue
			}
			if got, want := relabelRecords(s.Records, nil), relabelRecords(d.Records, relabel); !slices.Equal(got, want) {
				t.Fatalf("%s: the strided copy's records are not the relabelled ones:\ngot:  %.300q\nwant: %.300q", app, got, want)
			}
		}
	}
}

// relabelRecords returns records, sorted, with every ID a record names after
// its ": " mapped through relabel (nil: kept).
func relabelRecords(records []string, relabel func(graph.VertexID) graph.VertexID) []string {
	out := make([]string, len(records))
	for i, r := range records {
		head, ids, ok := strings.Cut(r, ": ")
		if ok && relabel != nil {
			fields := strings.Fields(ids)
			for j, f := range fields {
				x, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					panic(fmt.Sprintf("record %q names %q", r, f))
				}
				fields[j] = strconv.FormatInt(int64(relabel(graph.VertexID(x))), 10)
			}
			r = head + ": " + strings.Join(fields, " ")
		}
		out[i] = r
	}
	slices.Sort(out)
	return out
}

// shapesByteIdentical runs each spec on g through every shape, filing the
// first shape's result by app in refs.
func shapesByteIdentical(t *testing.T, g *graph.Graph, dense bool, specs []jobspec.Spec, refs map[string]*cluster.Result) {
	cfg := smallConfig()
	sessions := make([]*cluster.Session, len(hosts))
	for i, h := range hosts {
		sessions[i] = openSession(t, g, cfg, h)
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
				launch := func(undirected bool) func() (*cluster.Result, error) {
					return func() (*cluster.Result, error) {
						a, _ := jobspec.Build(g, sp)
						if undirected {
							a = cluster.NewUndirectedTC()
						}
						j, err := sessions[i].Launch(a, cluster.JobOptions{Spec: &sp})
						if err != nil {
							return nil, err
						}
						return j.Wait()
					}
				}
				// A second launch reruns the workload on the warm cluster.
				shapes = append(shapes, shape{h.name, launch(false)}, shape{h.name + "-rerun", launch(false)})
				if sp.App == "tc" && !h.processes {
					shapes = append(shapes, shape{h.name + "-undirected", launch(true)})
				}
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
				undirected := strings.HasSuffix(sh.name, "-undirected")
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
				if !undirected && res.Total.TasksDone != wantTasks {
					t.Fatalf("%s ran %d tasks, %s %d", sh.name, res.Total.TasksDone, shapes[0].name, wantTasks)
				}
				if undirected != (res.ResidentLists == 0) {
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
