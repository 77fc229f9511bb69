package cluster

import (
	"sync/atomic"
	"time"

	"gminer/internal/core"
	"gminer/internal/metrics"
	"gminer/internal/trace"
	"gminer/internal/transport"
	"gminer/internal/wire"
)

// master coordinates the job (§5.1, Figure 4): it maintains the global
// progress table from worker reports, schedules task stealing (progress
// scheduler), merges and broadcasts aggregator values, triggers periodic
// checkpoints, detects failures and recovers them, and decides termination.
// Its state is its goroutine's: anything else that must change it — a
// rollback — runs there between two passes (do). Only run reads the wall
// clock; every handler takes the reading of its pass.
type master struct {
	cfg      Config
	ep       transport.Endpoint // the current attempt's
	agg      core.Aggregator    // nil if the algorithm has none
	counters *metrics.Counters
	calls    chan func(now time.Time)

	reports []*progressReport
	// lastSeen is when slot i last reported, or the attempt began, or it
	// was offered for recovery: the failure detector's clock.
	lastSeen []time.Time
	partials [][]byte // latest encoded aggregator partial per worker

	// termination detection state (checkTermination)
	wave      int64     // last probe wave issued; 0 = none yet
	probedAt  time.Time // when it was last sent
	lastPrint []int64   // quiescent fingerprint of the previous complete wave; nil = none

	// checkpoint state
	epoch        int64
	ckptPending  int
	ckptAcks     map[int]ckptAck // worker → its ack for m.epoch
	ckptReq      []byte          // the request for m.epoch, sent again to whoever has not acked
	sink         *snapshotSink   // commits epochs to the MANIFEST; may be nil in tests
	ckptErr      error           // last commit failure, surfaced on cluster.Result
	lastCkpt     time.Time
	lastAggBytes []byte
	// committed is closed, and replaced, at every commit: a drain waits on
	// it for its barrier epoch rather than polling the MANIFEST.
	committed atomic.Pointer[chan struct{}]

	// fence is the cluster's fencing-token ledger (nil in single-process
	// mode): acks from a fenced-out generation are dropped before they can
	// count toward a commit.
	fence  *fenceTable
	trCkpt trace.Handle

	// barrier, when set, forces a checkpoint on the next periodic() pass
	// regardless of the interval clock. A draining worker raises it (via
	// the coordinator) so its state is committed before it detaches.
	barrier atomic.Bool
	// draining marks the slots whose process is detaching (requestDrain).
	draining []atomic.Bool

	failed map[int]bool

	doneCh chan struct{}
	stopCh chan struct{}
}

// newMaster builds a job's master. It reads no clock: run starts the
// checkpoint and silence clocks, and a test drives handle, periodic and
// checkTermination on a clock of its own.
func newMaster(cfg Config, ep transport.Endpoint, agg core.Aggregator,
	counters *metrics.Counters, sink *snapshotSink, fence *fenceTable) *master {
	m := &master{
		cfg:      cfg,
		agg:      agg,
		counters: counters,
		calls:    make(chan func(time.Time)),
		lastSeen: make([]time.Time, cfg.Workers),
		sink:     sink,
		fence:    fence,
		trCkpt:   cfg.Tracer.Handle(cfg.Workers, trace.CompCheckpoint),
		draining: make([]atomic.Bool, cfg.Workers),
		doneCh:   make(chan struct{}),
		stopCh:   make(chan struct{}),
	}
	sig := make(chan struct{})
	m.committed.Store(&sig)
	m.reset(ep, -1, time.Time{})
	return m
}

// reset starts the master on an attempt of the job whose workers talk to it
// through ep: the progress table, aggregator partials, probe wave, suspect
// marks and epoch in flight of the previous attempt are gone; the epoch
// counter, sink and fence stay. The silence clock starts at now, so a
// worker that dies before its first report is detected a FailTimeout later.
// rejoined, if not -1, is the slot whose new process made this attempt: it
// is no longer draining.
func (m *master) reset(ep transport.Endpoint, rejoined int, now time.Time) {
	m.ep = ep
	m.reports = make([]*progressReport, m.cfg.Workers)
	m.partials = make([][]byte, m.cfg.Workers)
	m.lastAggBytes = nil
	m.wave, m.lastPrint = 0, nil
	m.failed = make(map[int]bool)
	for i := range m.lastSeen {
		m.lastSeen[i] = now
	}
	m.ckptPending, m.ckptAcks = 0, make(map[int]ckptAck)
	if rejoined >= 0 {
		m.draining[rejoined].Store(false)
	}
}

// run is the master's main loop; it returns once the job has terminated
// (doneCh closed) or the master is stopped externally. It wakes on every
// message and tests for termination at once; the scheduling round (periodic,
// RoundHook) stays paced by the heartbeat. It is the one place the master
// reads the wall clock: each pass hands its reading to the handlers. offer
// is periodic's: it recovers a suspect slot (Job.recoverLost).
func (m *master) run(offer func(slot int, now time.Time)) {
	defer close(m.doneCh)
	now := time.Now()
	tick := m.cfg.progressInterval
	nextRound := now.Add(tick)
	var round int64
	m.lastCkpt = now
	for i := range m.lastSeen {
		m.lastSeen[i] = now
	}
	for {
		select {
		case <-m.stopCh:
			// External stop (cancellation, timeout): tell the workers too,
			// so their pipelines drain immediately instead of spinning
			// until the caller's Wait tears them down.
			m.broadcast(msgStop, nil)
			return
		case f := <-m.calls:
			f(time.Now())
		default:
		}
		msg, ok := m.ep.RecvTimeout(time.Until(nextRound))
		now := time.Now()
		if ok {
			m.handle(msg, now)
			// Drain whatever else is queued before doing periodic work.
			for {
				msg, ok := m.ep.RecvTimeout(0)
				if !ok {
					break
				}
				m.handle(msg, now)
			}
		}
		if !now.Before(nextRound) {
			nextRound = now.Add(tick)
			m.periodic(now, offer)
			round++
			if m.cfg.roundHook != nil {
				m.cfg.roundHook(round)
			}
		}
		if m.checkTermination(now) {
			m.broadcast(msgStop, nil)
			return
		}
	}
}

// do runs f on the master's goroutine between two passes, with the clock
// reading of its pass; once the master has returned, it does not run f.
func (m *master) do(f func(now time.Time)) {
	done := make(chan struct{})
	select {
	case m.calls <- func(now time.Time) { f(now); close(done) }:
		<-done
	case <-m.doneCh:
	}
}

// handle applies one message received on the pass whose clock reads now.
func (m *master) handle(msg transport.Message, now time.Time) {
	switch msg.Type {
	case msgProgress:
		p, err := decodeProgress(msg.Payload)
		if err != nil || p.Worker < 0 || p.Worker >= m.cfg.Workers {
			return
		}
		m.reports[p.Worker] = p
		m.lastSeen[p.Worker] = now
		delete(m.failed, p.Worker)
		if p.AggSet {
			m.partials[p.Worker] = p.AggBytes
		}
	case msgStealReq:
		m.scheduleSteal(msg.From)
	case msgCheckpointDone:
		m.handleCkptAck(msg)
	}
}

// handleCkptAck collects per-worker checkpoint acks and commits the epoch
// to the MANIFEST once every worker acked and the acks make a consistent
// cut. An epoch with any failed or silent worker never commits: commit means
// "all K files are durable and together they are one state of the job",
// which is exactly what a rollback or a resume restores.
func (m *master) handleCkptAck(msg transport.Message) {
	ack, err := decodeCkptAck(msg.Payload)
	if err != nil || ack.Epoch != m.epoch || m.ckptPending == 0 {
		return // stale ack from an abandoned or superseded epoch
	}
	if msg.From < 0 || msg.From >= m.cfg.Workers {
		return
	}
	if m.fence.stale(msg.From, ack.Gen) {
		// A zombie's ack: its slot has been claimed by a later generation.
		// Dropping it here (and re-checking in sink.commit) keeps a fenced
		// process from ever vouching for an epoch.
		m.trCkpt.Event(trace.EvFenced, uint64(ack.Gen)<<8|uint64(msgCheckpointDone))
		return
	}
	if _, dup := m.ckptAcks[msg.From]; dup {
		return // chaos duplication: count each worker once
	}
	if !ack.OK {
		// The worker could not snapshot or persist; the epoch can never
		// complete, so abandon it now rather than wait out the timeout.
		m.ckptPending = 0
		return
	}
	m.ckptAcks[msg.From] = ack
	m.ckptPending--
	if m.ckptPending > 0 || len(m.ckptAcks) != m.cfg.Workers {
		return
	}
	m.ckptPending = 0
	if !consistentCut(m.ckptAcks, m.cfg.Workers) {
		// A batch was in flight between two snapshots: sent in one, not yet
		// received in the other (or the reverse). No snapshot holds it, so
		// the epoch is no state of the job; the next one will be.
		m.trCkpt.Event(trace.EvCheckpointSkip, uint64(m.epoch))
		return
	}
	crcs := make([]uint32, m.cfg.Workers)
	gens := make([]int64, m.cfg.Workers)
	for w, a := range m.ckptAcks {
		crcs[w], gens[w] = a.CRC, a.Gen
	}
	if m.sink != nil {
		if err := m.sink.commit(m.epoch, crcs, gens); err != nil {
			m.ckptErr = err
			return
		}
	}
	next := make(chan struct{})
	close(*m.committed.Swap(&next))
}

// consistentCut reports whether every worker's snapshot counts, for every
// other worker, as many tasks received from it as that worker's snapshot
// counts sent to it: no migration batch crosses the cut (Chandy–Lamport
// with empty channels).
func consistentCut(acks map[int]ckptAck, workers int) bool {
	for i := 0; i < workers; i++ {
		for j := 0; j < workers; j++ {
			if peerCount(acks[i].Sent, j) != peerCount(acks[j].Recv, i) {
				return false
			}
		}
	}
	return true
}

// peerCount is counts[peer], 0 past the end of counts.
func peerCount(counts []int64, peer int) int64 {
	if peer < len(counts) {
		return counts[peer]
	}
	return 0
}

// scheduleSteal picks the most heavily loaded worker (largest task-store
// backlog in the progress table) and orders it to migrate tasks to the
// requesting idle worker (§6.2). The batch is half the gap between the two
// stores — what levels them, so one round trip keeps the thief busy for as
// long as the victim still has work — and never under the steal batch: a gap
// smaller than that is not worth a migration.
//
// No batch may start moving while a checkpoint epoch is out — it could leave
// the victim after its snapshot and reach the thief after its own — so the
// master answers such a REQ with msgNoTask, which also ends the thief's wait
// for a reply before it snapshots.
func (m *master) scheduleSteal(thief int) {
	if !m.cfg.Stealing {
		return
	}
	if m.ckptPending > 0 || thief >= 0 && thief < len(m.draining) && m.draining[thief].Load() {
		_ = m.ep.Send(thief, msgNoTask, nil)
		return
	}
	victim, best := -1, int64(0)
	for i, r := range m.reports {
		if r == nil || i == thief || m.failed[i] || m.draining[i].Load() {
			continue
		}
		if r.StoreSize > best {
			victim, best = i, r.StoreSize
		}
	}
	gap := best
	if thief >= 0 && thief < len(m.reports) && m.reports[thief] != nil {
		gap -= m.reports[thief].StoreSize
	}
	if victim < 0 || gap < int64(m.cfg.stealBatch) {
		_ = m.ep.Send(thief, msgNoTask, nil)
		return
	}
	_ = m.ep.Send(victim, msgMigrate, encodeMigrate(thief, max(int(gap/2), m.cfg.stealBatch)))
}

// periodic runs aggregator sync, checkpoint triggering, and failure
// detection on the clock reading now; it hands each suspect slot to offer,
// which recovers it on the master's goroutine (nil offers nothing).
func (m *master) periodic(now time.Time, offer func(slot int, now time.Time)) {
	// Aggregator: merge the latest partials and broadcast when changed.
	if m.agg != nil {
		merged := m.agg.Zero()
		for _, pb := range m.partials {
			if pb == nil {
				continue
			}
			v := m.agg.Decode(wire.NewReader(pb))
			merged = m.agg.Merge(merged, v)
		}
		w := wire.NewWriter(32)
		m.agg.Encode(w, merged)
		if string(w.Bytes()) != string(m.lastAggBytes) {
			m.lastAggBytes = append([]byte(nil), w.Bytes()...)
			m.broadcast(msgAggGlobal, w.Bytes())
		}
	}

	// Checkpointing.
	if m.cfg.CheckpointEvery > 0 {
		// Abandon an epoch whose acks never arrive (a worker died
		// mid-checkpoint); the next epoch will supersede it. Until then a
		// request may have missed a worker — a lost frame, or on the process
		// host one sent before the job's channel opened there — so each round
		// asks again whoever has not acked; a worker ignores a request it has
		// seen.
		if now.Sub(m.lastCkpt) > max(5*m.cfg.CheckpointEvery, 250*time.Millisecond) {
			m.ckptPending = 0
		}
		for i := 0; i < m.cfg.Workers && m.ckptPending > 0; i++ {
			if _, acked := m.ckptAcks[i]; !acked && !m.failed[i] {
				_ = m.ep.Send(i, msgCheckpointReq, m.ckptReq)
			}
		}
		if m.ckptPending == 0 && (now.Sub(m.lastCkpt) >= m.cfg.CheckpointEvery || m.barrier.Load()) {
			m.barrier.Store(false)
			m.epoch++
			// Workers already marked dead will never ack; do not wait on
			// them or the epoch stalls until the abandon timeout. (Such an
			// epoch is incomplete by construction and will not commit.)
			m.ckptPending = m.cfg.Workers - len(m.failed)
			m.ckptAcks = make(map[int]ckptAck)
			m.lastCkpt = now
			prev := noEpoch
			if man := m.manifest(); man != nil {
				prev = man.PrevEpoch
			}
			m.ckptReq = encodeCheckpointReq(m.epoch, prev)
			m.broadcast(msgCheckpointReq, m.ckptReq)
		}
	}

	// Failure detection. A flagged slot stays suspect until it reports or
	// the job rolls back, and is offered for recovery again after each
	// further FailTimeout of silence: the host declines a worker that is not
	// known lost, and that worker may die before its next report. Suspects
	// are offered once the scan is over: a rollback resets the table the
	// scan reads.
	if m.cfg.FailTimeout > 0 {
		var suspects []int
		for i := 0; i < m.cfg.Workers; i++ {
			if now.Sub(m.lastSeen[i]) <= m.cfg.FailTimeout {
				continue
			}
			if !m.failed[i] {
				m.failed[i] = true
				m.lastPrint = nil
				// A dead worker's checkpoint ack will never arrive: abandon
				// the in-flight epoch now instead of letting it freeze task
				// stealing and termination until the ack timeout expires.
				m.ckptPending = 0
			}
			m.lastSeen[i] = now
			suspects = append(suspects, i)
		}
		for _, i := range suspects {
			if offer != nil {
				offer(i, now)
			}
		}
	}
}

// requestBarrier asks the master to trigger a checkpoint on its next
// periodic pass regardless of the interval clock. Safe from any
// goroutine. A no-op when the job runs with checkpointing disabled
// (CheckpointEvery == 0): there is no manifest to commit to, and the
// caller must not wait on one.
func (m *master) requestBarrier() {
	m.barrier.Store(true)
}

// requestDrain marks slot i draining: its process checkpoints at the next
// barrier and detaches, and until a replacement's join rolls the job back
// (reset) the slot is neither served as a thief nor chosen as a victim, and
// the job cannot end on the leaving process's reports. Safe from any
// goroutine.
func (m *master) requestDrain(i int) { m.draining[i].Store(true) }

// commitSignal returns a channel closed at the next commit. Read it before
// committedEpoch: a commit between the two then still wakes the caller.
func (m *master) commitSignal() <-chan struct{} { return *m.committed.Load() }

// committedEpoch returns the newest committed epoch, or noEpoch when
// nothing has committed (or the job has no sink).
func (m *master) committedEpoch() int64 {
	if man := m.manifest(); man != nil {
		return man.Epoch
	}
	return noEpoch
}

// manifest returns the job's committed manifest, nil before the first
// commit or without a sink.
func (m *master) manifest() *manifest {
	if m.sink == nil {
		return nil
	}
	return m.sink.manifestView()
}

// checkTermination decides whether the job is over, by counting rather than
// timing (DESIGN.md, "Termination detection", has the argument). Once the
// table is quiescent the master issues a numbered probe wave; a report
// answers a wave if it echoes its number, i.e. was built after the probe
// arrived. Two consecutive waves, each answered by every worker, that both
// find the table quiescent with one fingerprint end the job: no task was
// owned or in flight at the instant the second wave went out (Mattern's
// four-counter rule). Each report names its wave, so a drop, duplicate,
// delay or reorder of a probe or a report only postpones the end; what the
// rule needs is that every task batch arrives exactly once (chaos exempts
// msgTasks) and counters that survive — a rollback restores them with the
// tasks, from one consistent cut.
func (m *master) checkTermination(now time.Time) bool {
	if m.ckptPending > 0 {
		return false
	}
	print, answered, ok := m.quiescent()
	if !ok {
		m.lastPrint = nil
		return false
	}
	switch {
	case answered && equalInt64(print, m.lastPrint):
		return true
	case answered:
		m.lastPrint = print
		m.wave++
	case m.wave == 0:
		m.wave++
	case now.Sub(m.probedAt) < m.cfg.progressInterval:
		return false // the wave is still out
	}
	// A new wave — or the old one again: a frame can die with its connection.
	m.probedAt = now
	m.broadcast(msgProbe, encodeEpoch(m.wave))
	return false
}

// quiescent reads the progress table. ok: every worker is live, idle (seeds
// done, no alive task) and migrations balance.
// print is the per-worker (activity, sent, recv) fingerprint; answered says
// every report echoes the current probe wave.
func (m *master) quiescent() (print []int64, answered, ok bool) {
	var sent, recv int64
	print = make([]int64, 0, 3*m.cfg.Workers)
	answered = m.wave > 0
	for i, r := range m.reports {
		if r == nil || m.failed[i] || m.draining[i].Load() || !r.SeedsDone || r.Inflight != 0 {
			return nil, false, false
		}
		sent += r.TasksSent
		recv += r.TasksRecv
		print = append(print, r.Activity, r.TasksSent, r.TasksRecv)
		answered = answered && r.Wave == m.wave
	}
	return print, answered, sent == recv
}

// equalInt64 compares fingerprints; a nil one equals nothing.
func equalInt64(a, b []int64) bool {
	if a == nil || b == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (m *master) broadcast(typ uint8, payload []byte) {
	for i := 0; i < m.cfg.Workers; i++ {
		_ = m.ep.Send(i, typ, payload)
	}
}

// globalAgg returns the final merged aggregator value.
func (m *master) globalAgg() any {
	if m.agg == nil {
		return nil
	}
	merged := m.agg.Zero()
	for _, pb := range m.partials {
		if pb == nil {
			continue
		}
		merged = m.agg.Merge(merged, m.agg.Decode(wire.NewReader(pb)))
	}
	return merged
}

func (m *master) stop() {
	select {
	case <-m.stopCh:
	default:
		close(m.stopCh)
	}
}
