package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/partition"
)

// launchSpy is a warm session that shows every cluster.Job it launches to
// onLaunch before handing it to the registry.
type launchSpy struct {
	*cluster.Session
	onLaunch func(*cluster.Job)
}

func (s *launchSpy) Launch(a core.Algorithm, opt cluster.JobOptions) (*cluster.Job, error) {
	j, err := s.Session.Launch(a, opt)
	if err == nil {
		s.onLaunch(j)
	}
	return j, err
}

// TestReapedJobReleasesEngine: a reaped job is its Result. On a dynamic
// daemon, eight ad-hoc jobs — each on its own graph epoch, so every tc among
// them cuts its own oriented view — and a standing query's baseline finish;
// every one of their cluster.Jobs becomes garbage, while the registry still
// answers for all of them byte for byte: status, result and their /metrics
// series.
func TestReapedJobReleasesEngine(t *testing.T) {
	const adhoc = 8
	g := dynServingGraph()
	batches := gen.Deltas(dynServingGraph(), gen.DeltasConfig{Batches: adhoc - 1, Ops: 24, Seed: 7})
	ccfg := testClusterConfig()
	ccfg.Dynamic = true
	ccfg.Partitioner = partition.Blocked{Shift: 4}
	sess, err := cluster.NewSession(g, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	freed := make(map[string]bool)
	spy := &launchSpy{Session: sess, onLaunch: func(cj *cluster.Job) {
		// The finalizer must not capture cj, or cj could never be freed.
		runtime.SetFinalizer(cj, func(cj *cluster.Job) {
			mu.Lock()
			freed[cj.ID()] = true
			mu.Unlock()
		})
	}}
	srv := New(sess, Config{MaxRetainedJobs: adhoc})
	srv.reg.launch = spy.Launch
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		sess.Close()
		t.Fatal(err)
	}
	defer srv.Shutdown()
	base := "http://" + addr

	ids := []string{"stand-cd"}
	submit(t, base, `{"app":"cd","standing":true,"id":"stand-cd"}`)
	awaitState(t, base, "stand-cd", StateStanding)
	apps := []string{"tc", "cd", "gm", "tc"}
	for i := 0; i < adhoc; i++ {
		if i > 0 {
			if code, _ := mutate(t, base, batches[i-1]); code != http.StatusOK {
				t.Fatalf("batch %d: status %d", i-1, code)
			}
		}
		id := fmt.Sprintf("adhoc-%d", i)
		if resp, _ := submit(t, base, fmt.Sprintf(`{"app":%q,"id":%q}`, apps[i%len(apps)], id)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d", id, resp.StatusCode)
		}
		awaitState(t, base, id, StateDone)
		ids = append(ids, id)
	}

	// What the registry answers for each job: its status and result
	// documents and the lines of /metrics labelled with it.
	answers := func() map[string]string {
		out := make(map[string]string)
		_, metrics := fetchText(t, base+"/metrics")
		for _, id := range ids {
			var b strings.Builder
			for _, path := range []string{"/jobs/" + id, "/jobs/" + id + "/result"} {
				code, body := fetchText(t, base+path)
				fmt.Fprintf(&b, "%s %d %s\n", path, code, body)
			}
			series := 0
			for _, line := range strings.Split(metrics, "\n") {
				if strings.Contains(line, fmt.Sprintf("job=%q", id)) {
					b.WriteString(line + "\n")
					series++
				}
			}
			if series == 0 {
				t.Fatalf("/metrics has no series for %s", id)
			}
			out[id] = b.String()
		}
		return out
	}
	before := answers()

	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		mu.Lock()
		var held []string
		for _, id := range ids {
			if !freed[id] {
				held = append(held, id)
			}
		}
		mu.Unlock()
		if len(held) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaped jobs %v still reachable: the registry pins their engine state", held)
		}
		time.Sleep(10 * time.Millisecond)
	}

	after := answers()
	for _, id := range ids {
		if before[id] != after[id] {
			t.Fatalf("%s answered differently once its cluster job was freed:\nbefore:\n%s\nafter:\n%s", id, before[id], after[id])
		}
	}
}
