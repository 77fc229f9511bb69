package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/chaos"
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
// — a report built before the probe arrived, or one delayed or duplicated
// past the next probe). A step sends a probe wave when it moves the wave
// out, and otherwise only if resend says it sends the current one again.
type termStep struct {
	rep     *progressReport
	echo    string
	restart int           // slot whose replacement rolled the job back before the step (-1: none)
	advance time.Duration // synthetic clock moves first
	want    bool          // the decision after the step
	wave    int64         // the wave the master must have out after the step
	resend  bool          // the step probes the wave out again
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
		name     string
		cfg      Config
		draining []int // slots draining from the start
		steps    []termStep
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
				{rep: idleRep(0, 10, 0, 0), echo: "cur", restart: -1, advance: tick, wave: 1, resend: true},
			},
		},
		{
			// A rollback: the old attempt's reports are gone, the new
			// attempt's workers report the counts they restored — which
			// balance, the cut being consistent — and the probe waves start
			// over.
			name: "rolled-back job runs the probe waves afresh",
			steps: []termStep{
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 3), "cur", 1),
				rep(idleRep(0, 10, 3, 0), "cur", 1),
				{rep: idleRep(0, 4, 3, 0), echo: "cur", restart: 1, wave: 0}, // one report is no table
				rep(idleRep(1, 2, 0, 3), "cur", 1),
				rep(idleRep(0, 4, 3, 0), "cur", 1),
				rep(idleRep(1, 2, 0, 3), "cur", 2),
				rep(idleRep(0, 4, 3, 0), "cur", 2),
				{rep: idleRep(1, 2, 0, 3), echo: "cur", restart: -1, want: true, wave: 2},
			},
		},
		{
			// A draining slot's process is on its way out: its idle reports
			// send no wave and end nothing until a replacement's join rolls
			// the job back.
			name:     "draining slot holds the job until its restart",
			draining: []int{1},
			steps: []termStep{
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 3), "cur", 0),
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				{rep: idleRep(1, 7, 0, 3), echo: "cur", restart: 1, wave: 0}, // the replacement
				rep(idleRep(0, 10, 3, 0), "cur", 1),
				rep(idleRep(1, 7, 0, 3), "cur", 1),
				rep(idleRep(0, 10, 3, 0), "cur", 2),
				rep(idleRep(1, 7, 0, 3), "cur", 2),
				{rep: idleRep(0, 10, 3, 0), echo: "cur", restart: -1, want: true, wave: 2},
			},
		},
		{
			// A simulated latency changes nothing: two answered waves end the
			// job, however little time has passed.
			name: "latency set ends after two answered waves",
			cfg:  Config{Latency: 2 * tick},
			steps: []termStep{
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 3), "cur", 1),
				rep(idleRep(0, 10, 3, 0), "cur", 1),
				rep(idleRep(1, 7, 0, 3), "cur", 2),
				rep(idleRep(0, 10, 3, 0), "cur", 2),
				{rep: idleRep(1, 7, 0, 3), echo: "cur", restart: -1, want: true, wave: 2},
			},
		},
		{
			// A chaos profile drops the probe to worker 0: its heartbeats
			// still echo the wave before, and the wave goes out again one
			// interval after it was sent, not before.
			name: "dropped probe is re-sent after one interval",
			cfg:  Config{Chaos: chaos.New(chaos.Heavy(1))},
			steps: []termStep{
				rep(idleRep(0, 10, 0, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 0), "cur", 1),
				rep(idleRep(1, 7, 0, 0), "cur", 1),
				{rep: idleRep(0, 10, 0, 0), echo: "old", restart: -1, advance: tick - 1, wave: 1},
				{rep: idleRep(0, 10, 0, 0), echo: "old", restart: -1, advance: 1, wave: 1, resend: true},
				rep(idleRep(0, 10, 0, 0), "cur", 2),
				rep(idleRep(1, 7, 0, 0), "cur", 2),
				{rep: idleRep(0, 10, 0, 0), echo: "cur", restart: -1, want: true, wave: 2},
			},
		},
		{
			// Worker 1's answer to wave 1 arrives a second time after wave 2
			// went out: it echoes 1, so it answers nothing, however idle and
			// unchanged it looks.
			name: "duplicated answer does not count for the next wave",
			cfg:  Config{Chaos: chaos.New(chaos.Heavy(1))},
			steps: []termStep{
				rep(idleRep(0, 10, 3, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 3), "cur", 1),
				rep(idleRep(0, 10, 3, 0), "cur", 1),
				rep(idleRep(1, 7, 0, 3), "cur", 2),
				rep(idleRep(1, 7, 0, 3), "old", 2), // the duplicate
				rep(idleRep(0, 10, 3, 0), "cur", 2),
				{rep: idleRep(1, 7, 0, 3), echo: "cur", restart: -1, want: true, wave: 2},
			},
		},
		{
			// Worker 0 answers wave 2, then its report from before the probe,
			// delayed, lands on top of that answer: the table holds no answer
			// of worker 0 until its next report, so worker 1's answer ends
			// nothing and the job ends one report later.
			name: "older report overwriting an answer delays the end",
			cfg:  Config{Chaos: chaos.New(chaos.Heavy(1))},
			steps: []termStep{
				rep(idleRep(0, 10, 0, 0), "cur", 0),
				rep(idleRep(1, 7, 0, 0), "cur", 1),
				rep(idleRep(0, 10, 0, 0), "cur", 1),
				rep(idleRep(1, 7, 0, 0), "cur", 2),
				rep(idleRep(0, 10, 0, 0), "cur", 2),
				rep(idleRep(0, 10, 0, 0), "old", 2), // delayed past the answer
				rep(idleRep(1, 7, 0, 0), "cur", 2),
				{rep: idleRep(0, 10, 0, 0), echo: "cur", restart: -1, want: true, wave: 2},
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
			m := newMaster(cfg, net.Endpoint(2), nil, &metrics.Counters{}, nil, nil)
			for _, w := range tc.draining {
				m.requestDrain(w)
			}
			now := time.Unix(0, 0)
			for i, st := range tc.steps {
				if st.restart >= 0 {
					m.reset(m.ep, st.restart, now)
				}
				now = now.Add(st.advance)
				r := *st.rep
				r.Wave = m.wave
				if st.echo == "old" {
					r.Wave--
				}
				before := m.wave
				m.handle(transport.Message{From: r.Worker, Type: msgProgress, Payload: encodeProgress(&r)}, now)
				if got := m.checkTermination(now); got != st.want {
					t.Fatalf("step %d: terminate = %v, want %v", i, got, st.want)
				}
				if m.wave != st.wave {
					t.Fatalf("step %d: wave %d out, want %d", i, m.wave, st.wave)
				}
				// Every probe reaches every worker and carries the wave.
				probes, want := 0, 0
				if m.wave != before || st.resend {
					want = cfg.Workers
				}
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
				if probes != want {
					t.Fatalf("step %d: %d probes sent, want %d", i, probes, want)
				}
			}
		})
	}
}

// The failure detector, on a synthetic clock: a slot flagged while its
// worker is still alive is declined by the host; the worker then dies
// before it reports again. The slot must be offered again once another
// FailTimeout passes in silence — a one-shot flag left the job hanging.
// A report or a rollback clears the suspicion; only the first flag
// abandons the in-flight checkpoint epoch.
func TestFailureDetectorReoffersSuspect(t *testing.T) {
	cfg := Config{Workers: 2, FailTimeout: 10 * time.Millisecond}.Defaults()
	net := transport.NewLocal(transport.LocalConfig{Nodes: 3})
	defer net.Close()
	m := newMaster(cfg, net.Endpoint(2), nil, &metrics.Counters{}, nil, nil)
	var offered []int
	offer := func(i int, _ time.Time) { offered = append(offered, i) }
	now := time.Unix(0, 0)
	for i := range m.lastSeen {
		m.lastSeen[i] = now
	}
	offers := func() (slots []int) {
		slots, offered = offered, nil
		return slots
	}
	step := func(d time.Duration, reporter int, want ...int) {
		t.Helper()
		now = now.Add(d)
		if reporter >= 0 {
			m.lastSeen[reporter] = now
		}
		m.periodic(now, offer)
		if got := offers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("at %v: offered %v, want %v", now.Sub(time.Unix(0, 0)), got, want)
		}
	}
	ft := cfg.FailTimeout

	m.ckptPending = 1
	step(ft+1, 1, 0) // slot 0 is silent: flagged and offered; the host declines it
	if !m.failed[0] || m.ckptPending != 0 {
		t.Fatalf("first flag: failed=%v ckptPending=%d", m.failed[0], m.ckptPending)
	}
	m.ckptPending = 1 // a later epoch went out without slot 0
	step(ft/2, 1)     // the worker dies; the lease has not run out yet
	step(ft/2+1, 1, 0)
	if !m.failed[0] || m.ckptPending != 1 {
		t.Fatalf("re-offer: failed=%v ckptPending=%d (the epoch is abandoned only at the first flag)", m.failed[0], m.ckptPending)
	}

	// A rollback ends the suspicion and restarts the silence clock.
	m.reset(m.ep, 0, now)
	if m.failed[0] {
		t.Fatal("restarted slot still suspect")
	}
	m.lastSeen[0] = now
	step(ft, 1)

	// So does a report.
	step(1, 1, 0)
	m.handle(transport.Message{From: 0, Type: msgProgress, Payload: encodeProgress(idleRep(0, 1, 0, 0))}, now)
	if m.failed[0] {
		t.Fatal("reporting slot still suspect")
	}
}

// recordingEndpoint keeps what the master sends through it.
type recordingEndpoint struct {
	transport.Endpoint
	sent []transport.Message
}

func (e *recordingEndpoint) Send(to int, typ uint8, payload []byte) error {
	e.sent = append(e.sent, transport.Message{To: to, Type: typ, Payload: payload})
	return nil
}

// requests returns the checkpoint epochs requested of each worker since the
// last call.
func (e *recordingEndpoint) requests() map[int][]int64 {
	epochs := map[int][]int64{}
	for _, m := range e.sent {
		if epoch, err := decodeEpoch(m.Payload); m.Type == msgCheckpointReq && err == nil {
			epochs[m.To] = append(epochs[m.To], epoch)
		}
	}
	e.sent = nil
	return epochs
}

// The checkpoint timer, on a synthetic clock: an epoch goes out once
// CheckpointEvery has passed since the last, and is asked again each round
// of every worker yet to ack it (a request can be lost, or reach a worker
// process before the job's channel opened there); one whose acks never all
// come is abandoned once max(5 × CheckpointEvery, 250 ms) has passed, and
// the next goes out with it; a barrier sends the next at once; and an epoch
// whose acks do not pair up — a batch sent in one snapshot, not received in
// the other — is abandoned the moment its last ack arrives, uncommitted.
func TestCheckpointTimerOnSyntheticClock(t *testing.T) {
	cfg := Config{Workers: 2, CheckpointEvery: 10 * time.Millisecond}.Defaults()
	ep := &recordingEndpoint{}
	m := newMaster(cfg, ep, nil, &metrics.Counters{}, nil, nil)
	now := time.Unix(0, 0)
	m.lastCkpt = now
	step := func(d time.Duration, want ...int64) {
		t.Helper()
		now = now.Add(d)
		m.periodic(now, nil)
		if got := ep.requests()[0]; !reflect.DeepEqual(got, want) {
			t.Fatalf("at %v: requested epochs %v of worker 0, want %v", now.Sub(time.Unix(0, 0)), got, want)
		}
	}
	// ackOf delivers worker w's ack of the epoch out: worker 0 counts sent
	// tasks to worker 1, which counts recv received from worker 0.
	ackOf := func(w int, sent, recv int64) {
		counts := [][2][]int64{{{0, sent}, {0, 0}}, {{0, 0}, {recv, 0}}}[w]
		a := ckptAck{Epoch: m.epoch, OK: true, Sent: counts[0], Recv: counts[1]}
		m.handle(transport.Message{From: w, Type: msgCheckpointDone, Payload: encodeCkptAck(a)}, now)
	}
	// ack delivers both workers' acks; one already in is not counted again.
	ack := func(sent, recv int64) (committed bool) {
		t.Helper()
		signal := m.commitSignal()
		for w := range cfg.Workers {
			ackOf(w, sent, recv)
		}
		if m.ckptPending != 0 {
			t.Fatalf("epoch %d still pending after every ack", m.epoch)
		}
		select {
		case <-signal:
			return true
		default:
			return false
		}
	}
	every := cfg.CheckpointEvery

	step(every - 1)
	step(1, 1)                    // the trigger
	step(250*time.Millisecond, 1) // nobody acks: asked again; the limit is 250 ms, not 5 × 10 ms
	step(1, 2)                    // abandoned, and epoch 2 goes out with it
	ackOf(0, 3, 3)                // worker 0 acks; worker 1's request was lost
	if got := ep.requests(); len(got) != 0 {
		t.Fatalf("an ack sent requests %v", got)
	}
	m.periodic(now, nil) // the next round
	if got := ep.requests(); !reflect.DeepEqual(got, map[int][]int64{1: {2}}) {
		t.Fatalf("requests %v after worker 0 acked, want epoch 2 of worker 1 only", got)
	}
	if !ack(3, 3) { // three tasks moved, both sides count them
		t.Fatal("a consistent cut did not commit")
	}
	step(every - 1)
	m.requestBarrier()
	step(0, 3) // the barrier does not wait for the interval
	if ack(5, 4) {
		t.Fatal("a cut with a batch in flight committed")
	}
	step(every - 1) // abandoned at once; the interval runs from epoch 3
	step(1, 4)
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
		s.wrapEps = func(eps []transport.Endpoint) {
			for i, ep := range eps {
				eps[i] = &lateTasks{Endpoint: ep, rng: rand.New(rand.NewSource(rng.Int63())), gate: gate}
			}
		}
		j, err := s.Launch(a, JobOptions{})
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
