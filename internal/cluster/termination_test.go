package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/jobspec"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/transport"
)

// Termination detection is tested by schedule, not by wall clock: the
// master's decision function is driven with synthetic report sequences and
// a synthetic clock, and the soak below races real migration batches
// against the probe waves.

// termStep is one event of a synthetic schedule. A report step feeds the
// master a progress report; echo fills in the wave the worker echoes
// ("cur": the wave currently out — a genuine answer; "old": the one before
// — a report built before the probe arrived).
type termStep struct {
	rep     *progressReport
	echo    string
	restart int           // slot replaced before the step (-1: none)
	advance time.Duration // synthetic clock moves first
	want    bool          // the decision after the step
	wave    int64         // the wave the master must have out after the step
}

func idleRep(w int, activity, sent, recv int64) *progressReport {
	return &progressReport{Worker: w, SeedsDone: true, Activity: activity, TasksSent: sent, TasksRecv: recv}
}

func busyRep(w int, activity, sent, recv, inflight int64) *progressReport {
	r := idleRep(w, activity, sent, recv)
	r.Inflight = inflight
	return r
}

func rep(r *progressReport, echo string, wave int64) termStep {
	return termStep{rep: r, echo: echo, restart: -1, wave: wave}
}

func TestTerminationDecision(t *testing.T) {
	tick := Config{}.Defaults().progressInterval
	cases := []struct {
		name  string
		cfg   Config
		steps []termStep
	}{
		{
			// Idle pushes, then two probe waves that agree.
			name: "clean two-wave sequence terminates",
			steps: []termStep{
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 3), "cur", 1), // table quiescent: wave 1 goes out
				rep(idleRep(0, 10, 3, 0), "cur", 1),
				rep(idleRep(1, 7, 0, 3), "cur", 2), // wave 1 complete: wave 2 goes out
				rep(idleRep(0, 10, 3, 0), "cur", 2),
				{rep: idleRep(1, 7, 0, 3), echo: "cur", restart: -1, want: true, wave: 2},
			},
		},
		{
			// Everyone idle, but a msgTasks batch is still in flight: the
			// victim counted it sent, the thief has not received it.
			name: "batch in flight holds the first wave back",
			steps: []termStep{
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 0), "cur", 0),
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				rep(busyRep(1, 10, 0, 3, 3), "cur", 0), // it landed
				rep(idleRep(1, 13, 0, 3), "cur", 1),    // and ran out: only now a wave
			},
		},
		{
			// A worker whose activity moved between its two answers was not
			// idle throughout, however idle both answers look.
			name: "worker leaving idle between waves restarts the count",
			steps: []termStep{
				rep(idleRep(0, 10, 0, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 0), "cur", 1),
				rep(idleRep(0, 10, 0, 0), "cur", 1),
				rep(idleRep(1, 7, 0, 0), "cur", 2),
				rep(idleRep(0, 10, 0, 0), "cur", 2),
				rep(idleRep(1, 9, 0, 0), "cur", 3), // wave 2 complete but differs: wave 3
				rep(idleRep(0, 10, 0, 0), "cur", 3),
				{rep: idleRep(1, 9, 0, 0), echo: "cur", restart: -1, want: true, wave: 3},
			},
		},
		{
			// A report built before the probe arrived (it echoes the previous
			// wave) is not an answer, however idle it looks.
			name: "reply that predates the wave does not count",
			steps: []termStep{
				rep(idleRep(0, 10, 0, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 0), "cur", 1),
				rep(idleRep(0, 10, 0, 0), "cur", 1),
				rep(idleRep(1, 7, 0, 0), "old", 1), // heartbeat that crossed the probe
				rep(idleRep(1, 7, 0, 0), "old", 1),
				rep(idleRep(1, 7, 0, 0), "cur", 2), // the real answer
				rep(idleRep(0, 10, 0, 0), "cur", 2),
				rep(idleRep(1, 7, 0, 0), "old", 2), // again for wave 2
				{rep: idleRep(1, 7, 0, 0), echo: "cur", restart: -1, want: true, wave: 2},
			},
		},
		{
			// A probe lost with a severed connection is sent again, same wave.
			name: "unanswered wave is probed again after an interval",
			steps: []termStep{
				rep(idleRep(0, 10, 0, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 0), "cur", 1),
				rep(idleRep(0, 10, 0, 0), "cur", 1),
				{rep: idleRep(0, 10, 0, 0), echo: "cur", restart: -1, advance: tick, wave: 1},
			},
		},
		{
			// A replaced slot: the dead incarnation's idle report must not
			// count, the newcomer's counters restart from zero, and from then
			// on only the time-spaced window may end the job.
			name: "restarted slot falls back to the time-spaced window",
			steps: []termStep{
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 3), "cur", 1),
				rep(idleRep(0, 10, 3, 0), "cur", 1),
				{rep: idleRep(0, 10, 3, 0), echo: "cur", restart: 1, wave: 1},
				rep(idleRep(1, 0, 0, 0), "old", 1), // replacement: unbalanced, wave 0
				{rep: idleRep(1, 0, 0, 0), echo: "old", restart: -1, advance: 3*tick - 1, wave: 1},
				{rep: idleRep(1, 0, 0, 0), echo: "old", restart: -1, advance: 1, want: true, wave: 1},
			},
		},
		{
			// Simulated latency keeps the widened window and never probes; a
			// fingerprint that moves restarts the window.
			name: "latency keeps the widened time-spaced window",
			cfg:  Config{Latency: 2 * tick},
			steps: []termStep{
				rep(idleRep(0, 10, 0, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 0), "cur", 0),
				{rep: idleRep(1, 7, 0, 0), echo: "cur", restart: -1, advance: 8*tick - 1, wave: 0},
				{rep: idleRep(1, 9, 0, 0), echo: "cur", restart: -1, advance: 1, wave: 0}, // moved
				{rep: idleRep(1, 9, 0, 0), echo: "cur", restart: -1, advance: 8*tick - 1, wave: 0},
				{rep: idleRep(1, 9, 0, 0), echo: "cur", restart: -1, advance: 1, want: true, wave: 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 2
			cfg = cfg.Defaults()
			net := transport.NewLocal(transport.LocalConfig{Nodes: 3})
			defer net.Close()
			m := newMaster(cfg, net.Endpoint(2), nil, &metrics.Counters{}, nil, nil, nil)
			now := time.Unix(0, 0)
			probes := 0
			for i, st := range tc.steps {
				if st.restart >= 0 {
					m.workerRestarted(st.restart)
					m.noteRestarts()
				}
				now = now.Add(st.advance)
				r := *st.rep
				r.Wave = m.wave
				if st.echo == "old" {
					r.Wave--
				}
				m.handle(transport.Message{From: r.Worker, Type: msgProgress, Payload: encodeProgress(&r)})
				if got := m.checkTermination(now); got != st.want {
					t.Fatalf("step %d: terminate = %v, want %v", i, got, st.want)
				}
				if m.wave != st.wave {
					t.Fatalf("step %d: wave %d out, want %d", i, m.wave, st.wave)
				}
				// Every probe reaches every worker and carries the wave.
				for w := 0; w < cfg.Workers; w++ {
					for {
						msg, ok := net.Endpoint(w).RecvTimeout(0)
						if !ok {
							break
						}
						if wave, err := decodeEpoch(msg.Payload); msg.Type != msgProbe || err != nil || wave != m.wave {
							t.Fatalf("step %d: worker %d got type %d wave %d, want a probe of wave %d", i, w, msg.Type, wave, m.wave)
						}
						probes++
					}
				}
			}
			if last := tc.steps[len(tc.steps)-1]; last.advance == tick && probes != 2*cfg.Workers {
				t.Fatalf("%d probes sent, want the wave sent twice to %d workers", probes, cfg.Workers)
			}
			if cfg.Latency > 0 && probes != 0 {
				t.Fatalf("the time-spaced path sent %d probes", probes)
			}
		})
	}
}

// lateTasks delivers every migration batch sent through it after a seeded
// random delay, without telling the master (no Config.Latency, no chaos
// profile): the probe-wave path runs while batches are in flight between
// workers that both already look idle. Pull responses bound for worker 0
// wait at the gate until the first batch has left.
type lateTasks struct {
	transport.Endpoint
	mu   sync.Mutex
	rng  *rand.Rand
	gate *stealGate
}

func (e *lateTasks) Send(to int, typ uint8, payload []byte) error {
	switch typ {
	case msgPullResp:
		if to != 0 {
			break
		}
		cp := append([]byte(nil), payload...)
		if e.gate.hold(func() { _ = e.Endpoint.Send(to, typ, cp) }) {
			return nil
		}
	case msgProgress:
		// Worker 0 seeded everything and its store is empty: no steal can
		// come, so holding its responses any longer only stalls the job.
		if rep, err := decodeProgress(payload); err == nil && rep.Worker == 0 && rep.SeedsDone && rep.StoreSize == 0 {
			e.gate.release()
		}
	}
	if typ != msgTasks {
		return e.Endpoint.Send(to, typ, payload)
	}
	e.gate.release()
	e.mu.Lock()
	d := time.Duration(e.rng.Int63n(int64(2 * time.Millisecond)))
	e.mu.Unlock()
	cp := append([]byte(nil), payload...)
	time.AfterFunc(d, func() { _ = e.Endpoint.Send(to, typ, cp) })
	return nil
}

// stealGate makes a migration happen by construction. Worker 0 owns most of
// a skewed partition; while its pull responses are held its parked tasks
// cannot finish, the cache fills with what they wait for, the CMQ window
// shuts, and the rest of its seeds stay in the task store — where the other
// workers, idle long before, find them when they steal. The first batch
// shipped opens the gate; so does worker 0 reporting an empty store with
// every seed spawned (a graph too small to shut the window), and a timer.
type stealGate struct {
	mu   sync.Mutex
	open bool
	held []func()
}

// hold queues send while the gate is shut and reports whether it did.
func (g *stealGate) hold(send func()) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.open {
		g.held = append(g.held, send)
	}
	return !g.open
}

// release opens the gate and sends what it held.
func (g *stealGate) release() {
	g.mu.Lock()
	held := g.held
	g.open, g.held = true, nil
	g.mu.Unlock()
	for _, send := range held {
		send()
	}
}

// TestTerminationSoakStealUnderDelay: 200 seeded jobs on a skewed partition
// with eager stealing in small batches, every batch delayed in flight and
// the big worker's pull responses held until one has left. A job that
// stopped with a batch unreceived would lose its tasks' output, so each
// result must equal the sequential run's, records and aggregate.
func TestTerminationSoakStealUnderDelay(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	var stolen, migrated int64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 700, Seed: seed})
		sp := jobspec.Spec{App: "tc"}
		if seed%2 == 0 {
			sp = jobspec.Spec{App: "cd", MinSim: 0.4, MinSize: 3}
		}
		sp = sp.Normalize()
		jobspec.Prepare(g, sp)
		build := func() core.Algorithm {
			a, err := jobspec.Build(g, sp)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		want := algo.SeqRun(g, build())
		sort.Strings(want.Records)

		s, err := NewSession(g, Config{
			Workers:          3,
			Threads:          1,
			Partitioner:      partition.Skewed{Bias: 0.8},
			Stealing:         true,
			stealBatch:       2,
			stealLocalityMax: 2, // every task may migrate
			progressInterval: 200 * time.Microsecond,
			CacheCapacity:    8, // worker 0's remote candidates alone shut the window
			StoreMemCapacity: 64,
			UseLSH:           seed%3 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := build()
		rng := rand.New(rand.NewSource(seed))
		gate := &stealGate{}
		fallback := time.AfterFunc(100*time.Millisecond, gate.release)
		j, err := s.launch(a, JobOptions{}, launchSpec{
			newHost: func(j *Job, plan core.Plan, eps []transport.Endpoint) (workerHost, error) {
				for i, ep := range eps {
					eps[i] = &lateTasks{Endpoint: ep, rng: rand.New(rand.NewSource(rng.Int63())), gate: gate}
				}
				return &goroutineHost{j: j, algo: a, tables: s.oriented.tables(plan, s.g, s.assign, j.cfg.GraphEpoch, s.tables), eps: eps, workers: make([]*Worker, len(eps))}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		fallback.Stop()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.AggGlobal, want.AggGlobal) {
			t.Fatalf("seed %d (%s): aggregate %v, sequential %v", seed, sp.App, res.AggGlobal, want.AggGlobal)
		}
		if len(res.Records)+len(want.Records) > 0 && !reflect.DeepEqual(res.Records, want.Records) {
			t.Fatalf("seed %d (%s): %d records, sequential %d", seed, sp.App, len(res.Records), len(want.Records))
		}
		stolen += res.Total.Stolen
		if res.Total.Stolen > 0 {
			migrated++
		}
	}
	if stolen == 0 {
		t.Fatal("no task migrated in the whole soak: the race it is about never ran")
	}
	t.Logf("%d seeds, %d with a migration, %d tasks migrated under delay", seeds, migrated, stolen)
}
