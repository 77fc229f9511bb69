package cluster

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
	"gminer/internal/trace"
	"gminer/internal/transport"
)

// The reproducers of the migration hole a per-worker restore leaves: a
// batch that moved after the last commit, or that was on the wire when it
// was taken, is in no snapshot — or in two. Each waits on counters, a
// committed epoch or a batch it holds itself, never on the clock; epochs
// commit only when the test raises a barrier (CheckpointEvery is an hour).

// cutJob is a GM job on a skewed partition whose tasks queue in the task
// store (a tiny cache shuts the pull window), so idle workers steal all the
// time, in batches of two, any task at all.
type cutJob struct {
	g    *graph.Graph
	spec jobspec.Spec
	cfg  Config
	seq  *algo.SeqResult
}

func newCutJob(t *testing.T) cutJob {
	t.Helper()
	g := gen.RMAT(gen.RMATConfig{Scale: 12, Edges: 50000, Seed: 91})
	gen.DealLabels(g, 5)
	sp := jobspec.Spec{App: "gm", Pattern: "0,1,3,2,4,1;-1,0,0,1,2,4"}.Normalize()
	a, err := jobspec.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 3, Threads: 2, CacheCapacity: 8, StoreMemCapacity: 64, UseLSH: true,
		Stealing: true, Partitioner: partition.Skewed{Bias: 0.8}, CheckpointDir: t.TempDir(),
		progressInterval: 200 * time.Microsecond, stealBatch: 2, stealLocalityMax: 2}
	return cutJob{g: g, spec: sp, cfg: cfg, seq: algo.SeqRun(g, a)}
}

// launch starts the job on a session of the named host and returns it with
// a lookup of its live workers.
func (c cutJob) launch(t *testing.T, processes bool, tr *trace.Tracer) (*Job, func(i int) *Worker) {
	t.Helper()
	a, err := jobspec.Build(c.g, c.spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := JobOptions{ID: "cut", Spec: &c.spec, CheckpointEvery: time.Hour, Tracer: tr}
	if !processes {
		s, err := NewSession(c.g, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		j, err := s.Launch(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		return j, goroutineWorkers(j)
	}
	s, err := NewRemoteSession(c.g, c.cfg, RemoteSessionConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	wps := make([]*WorkerProcess, c.cfg.Workers)
	for i := range wps {
		wp, err := StartWorkerProcess(c.g, c.cfg, WorkerOptions{Coordinator: s.Addr(), Node: i, HeartbeatEvery: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(wp.Close)
		wps[i] = wp
	}
	if err := s.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	j, err := s.Launch(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	return j, func(i int) *Worker { return wps[i].jobWorker("cut") }
}

// goroutineWorkers looks up a goroutine-host job's live workers.
func goroutineWorkers(j *Job) func(i int) *Worker {
	h := j.host.(*goroutineHost)
	return func(i int) *Worker {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.workers[i]
	}
}

// commit raises a barrier once every worker runs — a process that has not
// opened the job's channel yet would never see the request — and waits for
// an epoch past after to commit.
func commit(t *testing.T, j *Job, worker func(int) *Worker, after int64) int64 {
	t.Helper()
	for i := 0; i < j.cfg.Workers; i++ {
		for worker(i) == nil {
			time.Sleep(100 * time.Microsecond)
		}
	}
	j.master.requestBarrier()
	for {
		if epoch := j.master.committedEpoch(); epoch > after {
			return epoch
		}
		if j.Done() {
			t.Fatal("the job ended before the barrier epoch committed")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// migrated waits, after a commit, until some worker's counter moves past
// what it read at the call — a batch sent (sent) or landed (received) after
// the cut — and returns that worker.
func migrated(t *testing.T, j *Job, worker func(int) *Worker, sent bool) int {
	t.Helper()
	count := func(i int) int64 {
		if w := worker(i); w != nil && sent {
			return w.tasksSent.Load()
		} else if w != nil {
			return w.tasksRecv.Load()
		}
		return 0
	}
	start := make([]int64, j.cfg.Workers)
	for i := range start {
		start[i] = count(i)
	}
	for !j.Done() {
		for i := range start {
			if count(i) > start[i] {
				return i
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("the job ended with no migration after the commit")
	return -1
}

// TestKillAfterMigrationRollsBack: a worker killed after a batch moved
// since the last commit. Restoring the thief alone loses the batch (its
// snapshot never held it, and the victim lent it away); restoring the
// victim alone runs it twice (its snapshot still holds it, and the thief ran
// it too). Rolling every worker back to the commit does neither: the count,
// and the tasks done, are the sequential run's.
func TestKillAfterMigrationRollsBack(t *testing.T) {
	c := newCutJob(t)
	for _, host := range []string{"goroutines", "processes"} {
		for _, kill := range []string{"thief", "victim"} {
			t.Run(host+"/"+kill, func(t *testing.T) {
				j, worker := c.launch(t, host == "processes", nil)
				commit(t, j, worker, noEpoch)
				lost := migrated(t, j, worker, kill == "victim")
				j.KillWorker(lost)
				if err := j.RecoverWorker(lost); err != nil {
					t.Fatal(err)
				}
				res, err := j.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if res.AggGlobal != c.seq.AggGlobal || res.Total.TasksDone != c.seq.Tasks || res.Recovered != 1 {
					t.Fatalf("worker %d killed: count %v over %d tasks after %d recoveries; want %v over %d after one",
						lost, res.AggGlobal, res.Total.TasksDone, res.Recovered, c.seq.AggGlobal, c.seq.Tasks)
				}
			})
		}
	}
}

// batchTrap wraps a goroutine-host job's worker endpoints: armed, it holds
// the next migration batch sent, and every re-send of its sequence, until
// release, and it counts the checkpoint acks of one epoch and the batches
// that land.
type batchTrap struct {
	mu      sync.Mutex
	armed   bool
	held    chan struct{} // closed once a batch is held
	from    int           // the held batch's sender
	seq     uint64        // and its sequence on the sender's stream
	batch   []byte        // the held batch's frame
	send    func()        // sends it
	gone    bool          // the batch was let go
	epoch   int64         // whose acks acked counts
	acked   int
	landed  chan int // the worker the held batch reached
	release sync.Once
}

func newBatchTrap() *batchTrap {
	return &batchTrap{held: make(chan struct{}), landed: make(chan int, 1)}
}

func (b *batchTrap) wrap(eps []transport.Endpoint) {
	for i, ep := range eps {
		eps[i] = &trapEndpoint{Endpoint: ep, b: b}
	}
}

// arm holds the next batch; acks counts epoch's acks from here on.
func (b *batchTrap) arm(epoch int64) {
	b.mu.Lock()
	b.armed, b.epoch = true, epoch
	b.mu.Unlock()
}

func (b *batchTrap) acks() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.acked
}

// let sends the held batch on.
func (b *batchTrap) let() {
	b.release.Do(func() {
		b.mu.Lock()
		send := b.send
		b.gone = true
		b.mu.Unlock()
		send()
	})
}

type trapEndpoint struct {
	transport.Endpoint
	b *batchTrap
}

func (e *trapEndpoint) Send(to int, typ uint8, payload []byte) error {
	b := e.b
	b.mu.Lock()
	defer b.mu.Unlock()
	h, _, _ := decodeStreamHeader(payload)
	switch {
	case typ == msgTasks && b.armed && b.send == nil:
		b.from, b.seq = e.Node(), h.seq
		b.batch = append([]byte(nil), payload...)
		b.send = func() { _ = e.Endpoint.Send(to, typ, b.batch) }
		close(b.held)
		return nil
	case typ == msgTasks && b.send != nil && !b.gone && e.Node() == b.from && h.seq == b.seq:
		return nil // a re-send of the held batch
	case typ == msgCheckpointDone:
		if epoch, err := decodeEpoch(payload); err == nil && b.armed && epoch == b.epoch {
			b.acked++
		}
	}
	return e.Endpoint.Send(to, typ, payload)
}

func (e *trapEndpoint) Recv() (transport.Message, bool) {
	m, ok := e.Endpoint.Recv()
	if ok && m.Type == msgTasks {
		h, _, _ := decodeStreamHeader(m.Payload)
		e.b.mu.Lock()
		if e.b.batch != nil && m.From == e.b.from && h.seq == e.b.seq {
			select {
			case e.b.landed <- e.Node():
			default: // a copy of a batch that already landed
			}
		}
		e.b.mu.Unlock()
	}
	return m, ok
}

// TestBatchInFlightAcrossCut holds one migration batch on the wire while
// every worker snapshots an epoch: the victim counts it sent, the thief has
// not seen it. An epoch taken so holds the batch in no snapshot, and must
// not commit. The test then lets the batch land and either rolls the job
// back (killing the thief) or crashes it and resumes it from its checkpoint
// directory: both restore the newest commit, and neither may lose the batch.
func TestBatchInFlightAcrossCut(t *testing.T) {
	c := newCutJob(t)
	for _, resume := range []bool{false, true} {
		t.Run(map[bool]string{false: "rollback", true: "resume"}[resume], func(t *testing.T) { batchAcrossCut(t, c, resume) })
	}
}

func batchAcrossCut(t *testing.T, c cutJob, resume bool) {
	trap := newBatchTrap()
	tr := trace.New(c.cfg.Workers+1, 4096).EnableEvents()
	// Every worker withholds its seed ranges until the trap is armed, so the
	// whole job's work, and its migrations, come after the first commit: a
	// job that runs fast cannot end before there is a batch to hold.
	armed := make(chan struct{})
	held := c.cfg
	held.seedHold = func(int, bool) bool { return !closed(armed) }
	s, err := NewSession(c.g, held)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.wrapEps = trap.wrap
	a := c.build(t)
	j, err := s.Launch(a, JobOptions{ID: "cut", CheckpointEvery: time.Hour, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	first := commit(t, j, goroutineWorkers(j), noEpoch)
	trap.arm(first + 1)
	close(armed)
	select {
	case <-trap.held:
	case <-j.master.doneCh:
		t.Fatal("the job ended with no migration to hold")
	}
	// Every worker snapshots epoch first+1 with the batch on the wire.
	j.master.requestBarrier()
	for trap.acks() < c.cfg.Workers {
		if j.Done() {
			t.Fatal("the job ended before every worker acked the barrier epoch")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The master either commits that epoch or refuses it.
	for j.master.committedEpoch() <= first && masterSkips(tr, c.cfg.Workers) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	trap.let()
	var res *Result
	if resume {
		j.Stop() // a crash: the run's in-memory state is gone
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Resume, cfg.CheckpointDir = true, filepath.Join(c.cfg.CheckpointDir, "cut")
		res, err = Run(c.g, a, cfg)
	} else {
		thief := <-trap.landed
		j.KillWorker(thief)
		if err := j.RecoverWorker(thief); err != nil {
			t.Fatal(err)
		}
		res, err = j.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.AggGlobal != c.seq.AggGlobal || res.Total.TasksDone != c.seq.Tasks {
		t.Fatalf("count %v over %d tasks; want %v over %d", res.AggGlobal, res.Total.TasksDone, c.seq.AggGlobal, c.seq.Tasks)
	}
}

// TestCutBetweenSeedRanges: a seed range is alive from its take to its last
// child's admission, so a cut holds it whole or not at all. One executor
// parks in Seed at the first vertex of its worker's scan that admits tasks,
// inside a taken range with the cursor past it and nothing admitted yet. An
// epoch requested then must not commit while it is parked: every other
// worker acks it and the parked one does not. Once released, the range
// finishes and the epoch commits; the job is rolled back to it (killing that
// worker) or crashed and resumed from disk: the count is the sequential
// run's and the tasks done the fault-free run's. Every worker withholds its
// last range until then, so the job outlives the commit.
func TestCutBetweenSeedRanges(t *testing.T) {
	c := newCutJob(t)
	c.cfg.Threads = 1 // the parked executor is its worker's only one
	ref, err := Run(c.g, c.build(t), c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.AggGlobal != c.seq.AggGlobal || ref.Total.TasksDone != c.seq.Tasks {
		t.Fatalf("fault-free: count %v over %d tasks; want %v over %d", ref.AggGlobal, ref.Total.TasksDone, c.seq.AggGlobal, c.seq.Tasks)
	}
	probe := c.build(t)
	core.PlanOf(probe).Labels(c.g.LabelColumn())
	spawns := func(id graph.VertexID) (yes bool) {
		probe.Seed(c.g.Vertex(id), func(*core.Task) { yes = true })
		return yes
	}
	for _, resume := range []bool{false, true} {
		t.Run(map[bool]string{false: "rollback", true: "resume"}[resume], func(t *testing.T) {
			release := make(chan struct{})
			cfg := c.cfg
			cfg.seedHold = holdLast(release)
			s, err := NewSession(c.g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			acks := make(chan [2]int64, 64) // {worker, epoch} of every checkpoint ack sent
			s.wrapEps = func(eps []transport.Endpoint) {
				for i, ep := range eps {
					eps[i] = ackTap{Endpoint: ep, acks: acks}
				}
			}
			// On the worker with the longest scan, sv is the first vertex that
			// admits tasks; it must not be in the withheld last range.
			w := 0
			for i, l := range s.tables.locals {
				if len(l.ids) > len(s.tables.locals[w].ids) {
					w = i
				}
			}
			order, flush := s.tables.locals[w].ids, cfg.Defaults().BufferFlush
			sv := slices.IndexFunc(order, spawns)
			if sv < 0 || sv >= (len(order)-1)/flush*flush {
				t.Fatalf("worker %d's scan of %d vertices admits its first task at %d, in no range but the last", w, len(order), sv)
			}
			parked, unpark := make(chan struct{}), make(chan struct{})
			let, releaseAll := sync.OnceFunc(func() { close(unpark) }), sync.OnceFunc(func() { close(release) })
			t.Cleanup(let) // before s.Close: a failed run must not leave an executor parked
			t.Cleanup(releaseAll)
			a := gatedGM{GraphMatch: c.build(t), gate: func(v *graph.Vertex, seed func()) {
				if v.ID == order[sv] && !closed(parked) {
					close(parked)
					<-unpark
				}
				seed()
			}}
			j, err := s.Launch(a, JobOptions{ID: "cut", CheckpointEvery: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			<-parked
			j.master.requestBarrier()
			var epoch int64
			for others := map[int64]bool{}; len(others) < cfg.Workers-1; {
				ack := <-acks
				if ack[0] == int64(w) {
					t.Fatalf("worker %d acked epoch %d with a seed range parked", w, ack[1])
				}
				epoch, others[ack[0]] = ack[1], true
			}
			if got := j.master.committedEpoch(); got >= epoch {
				t.Fatalf("epoch %d committed with worker %d's seed range parked", got, w)
			}
			let()
			for {
				sig := j.master.commitSignal()
				if j.master.committedEpoch() >= epoch {
					break
				}
				select {
				case <-sig:
				case <-j.master.doneCh:
					t.Fatal("the job ended before the barrier epoch committed")
				}
			}
			var res *Result
			if resume {
				releaseAll()
				j.Stop() // a crash: the run's in-memory state is gone
				if _, err := j.Wait(); err != nil {
					t.Fatal(err)
				}
				cfg := c.cfg
				cfg.Resume, cfg.CheckpointDir = true, filepath.Join(c.cfg.CheckpointDir, "cut")
				res, err = Run(c.g, a, cfg)
			} else {
				j.KillWorker(w)
				releaseAll()
				if err := j.RecoverWorker(w); err != nil {
					t.Fatal(err)
				}
				res, err = j.Wait()
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.AggGlobal != c.seq.AggGlobal || res.Total.TasksDone != ref.Total.TasksDone {
				t.Fatalf("count %v over %d tasks; want %v over %d", res.AggGlobal, res.Total.TasksDone, c.seq.AggGlobal, ref.Total.TasksDone)
			}
		})
	}
}

// ackTap passes every message on and reports the checkpoint acks its worker
// sends.
type ackTap struct {
	transport.Endpoint
	acks chan<- [2]int64
}

func (e ackTap) Send(to int, typ uint8, payload []byte) error {
	if epoch, err := decodeEpoch(payload); typ == msgCheckpointDone && err == nil {
		select {
		case e.acks <- [2]int64{int64(e.Node()), epoch}:
		default:
		}
	}
	return e.Endpoint.Send(to, typ, payload)
}

// build returns the job's GM, as Launch takes it.
func (c cutJob) build(t *testing.T) *algo.GraphMatch {
	t.Helper()
	a, err := jobspec.Build(c.g, c.spec)
	if err != nil {
		t.Fatal(err)
	}
	return a.(*algo.GraphMatch)
}

// gatedGM is GM whose seed ranges hand every vertex to gate, with the call
// that seeds it: a test parks an executor there inside a taken range.
type gatedGM struct {
	*algo.GraphMatch
	gate func(v *graph.Vertex, seed func())
}

// Seed implements core.Algorithm.
func (a gatedGM) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	a.gate(v, func() { a.GraphMatch.Seed(v, spawn) })
}

// masterSkips counts the epochs the master refused (its node's events).
func masterSkips(tr *trace.Tracer, master int) int {
	n := 0
	for _, ev := range tr.Events() {
		if int(ev.Worker) == master && ev.Type == trace.EvCheckpointSkip {
			n++
		}
	}
	return n
}
