package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/cluster"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
)

// TestShapesByteIdentical is the cross-shape differential: one seeded graph
// and one spec through every way a job can be launched — one-shot Run over
// the in-process network, one-shot Run over loopback TCP, a warm Session,
// and a RemoteSession whose workers are WorkerProcess hosts — must yield
// byte-identical records and aggregate. There is one launch path under all
// four, so a divergence here is a host or transport bug, not a second
// engine's. It runs twice: on the graph as generated, whose dense IDs put
// every lookup on the vertex directory's array arm, and on a copy with the
// IDs strided apart, which takes the hash-table arm; the two must agree on
// every aggregate and record count (the records name the IDs).
func TestShapesByteIdentical(t *testing.T) {
	dense := servingGraph(t)
	byArm := map[bool]map[string]*cluster.Result{}
	for _, g := range []*graph.Graph{dense, sparseIDs(dense)} {
		cfg := smallConfig()

		sess, err := cluster.NewSession(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if sess.DenseDirectory() != (g == dense) {
			t.Fatalf("vertex directory dense=%v on the graph with dense IDs=%v", sess.DenseDirectory(), g == dense)
		}
		byArm[g == dense] = map[string]*cluster.Result{}
		rs, _ := remoteTestCluster(t, g, cfg,
			cluster.RemoteSessionConfig{ResultTimeout: 60 * time.Second},
			cluster.WorkerOptions{HeartbeatEvery: 20 * time.Millisecond})

		wait := func(j *cluster.Job, err error) (*cluster.Result, error) {
			if err != nil {
				return nil, err
			}
			return j.Wait()
		}
		for _, sp := range []jobspec.Spec{
			{App: "tc"},
			{App: "gm"},
			{App: "cd", MinSim: 0.2, MinSize: 3},
		} {
			sp := sp.Normalize()
			t.Run(fmt.Sprintf("%s/dense=%v", sp.App, g == dense), func(t *testing.T) {
				shapes := []struct {
					name string
					run  func() (*cluster.Result, error)
				}{
					{"run", func() (*cluster.Result, error) {
						a, _ := jobspec.Build(g, sp)
						return cluster.Run(g, a, cfg)
					}},
					{"run-tcp", func() (*cluster.Result, error) {
						a, _ := jobspec.Build(g, sp)
						tcp := cfg
						tcp.UseTCP = true
						return cluster.Run(g, a, tcp)
					}},
					{"session", func() (*cluster.Result, error) {
						a, _ := jobspec.Build(g, sp)
						return wait(sess.Launch(a, cluster.JobOptions{Spec: &sp}))
					}},
					// A second launch reruns the workload on the warm cluster.
					{"session-rerun", func() (*cluster.Result, error) {
						a, _ := jobspec.Build(g, sp)
						return wait(sess.Launch(a, cluster.JobOptions{Spec: &sp}))
					}},
					{"remote", func() (*cluster.Result, error) {
						a, _ := jobspec.Build(g, sp)
						return wait(rs.Launch(a, cluster.JobOptions{Spec: &sp}))
					}},
					// The differential baseline: no plan, no oriented view, no
					// resident set — the same bytes.
					{"session-generic", func() (*cluster.Result, error) {
						generic := sp
						generic.Generic = true
						a, _ := jobspec.Build(g, generic)
						return wait(sess.Launch(a, cluster.JobOptions{Spec: &generic}))
					}},
					{"remote-generic", func() (*cluster.Result, error) {
						generic := sp
						generic.Generic = true
						a, _ := jobspec.Build(g, generic)
						return wait(rs.Launch(a, cluster.JobOptions{Spec: &generic}))
					}},
				}
				var want string
				var wantTasks int64
				for i, sh := range shapes {
					res, err := sh.run()
					if err != nil {
						t.Fatalf("%s: %v", sh.name, err)
					}
					got := joinRecords(res)
					generic := strings.HasSuffix(sh.name, "-generic")
					if i == 0 {
						want, wantTasks = got, res.Total.TasksDone
						byArm[g == dense][sp.App] = res
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
		if n := sess.ActiveJobs() + rs.ActiveJobs(); n != 0 {
			t.Fatalf("ActiveJobs after every Wait: got %d want 0", n)
		}
	}
	for app, d := range byArm[true] {
		s := byArm[false][app]
		if s == nil || fmt.Sprint(d.AggGlobal) != fmt.Sprint(s.AggGlobal) || len(d.Records) != len(s.Records) {
			t.Fatalf("%s: array arm %v and %d records, hash-table arm %+v", app, d.AggGlobal, len(d.Records), s)
		}
	}
}
