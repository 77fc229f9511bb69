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
// checkpoints, detects failures and decides termination.
type master struct {
	cfg      Config
	ep       transport.Endpoint
	agg      core.Aggregator // nil if the algorithm has none
	counters *metrics.Counters

	reports  []*progressReport
	lastSeen []time.Time
	partials [][]byte // latest encoded aggregator partial per worker

	// termination detection state (checkTermination)
	wave        int64     // last probe wave issued; 0 = none yet
	probedAt    time.Time // when it was last sent
	lastPrint   []int64   // quiescent fingerprint of the previous complete wave; nil = none
	stableSince time.Time // time-spaced test: since when lastPrint has stood still
	recovered   bool      // a failure happened: sent/recv sums may never match

	// checkpoint state
	epoch        int64
	ckptPending  int
	ckptAcks     map[int]uint32 // worker → snapshot CRC acked for m.epoch
	ackGens      map[int]int64  // worker → fencing generation the ack arrived with
	sink         *snapshotSink  // commits epochs to the MANIFEST; may be nil in tests
	ckptErr      error          // last commit failure, surfaced on cluster.Result
	lastCkpt     time.Time
	lastAggBytes []byte

	// fence is the cluster's fencing-token ledger (nil in single-process
	// mode): acks from a fenced-out generation are dropped before they can
	// count toward a commit.
	fence   *fenceTable
	trFence trace.Handle

	// barrier, when set, forces a checkpoint on the next periodic() pass
	// regardless of the interval clock. A draining worker raises it (via
	// the coordinator) so its state is committed before it detaches.
	barrier atomic.Bool

	failed   map[int]bool
	failures chan<- int
	// restarts names slots whose worker was just replaced: the dead
	// incarnation's last report must not count toward termination (it may
	// say "idle" while the replacement is still restoring tasks).
	restarts chan int

	doneCh chan struct{}
	stopCh chan struct{}
}

func newMaster(cfg Config, ep transport.Endpoint, agg core.Aggregator,
	counters *metrics.Counters, failures chan<- int, sink *snapshotSink, fence *fenceTable) *master {
	m := &master{
		cfg:      cfg,
		ep:       ep,
		agg:      agg,
		counters: counters,
		reports:  make([]*progressReport, cfg.Workers),
		lastSeen: make([]time.Time, cfg.Workers),
		partials: make([][]byte, cfg.Workers),
		ckptAcks: make(map[int]uint32),
		ackGens:  make(map[int]int64),
		sink:     sink,
		fence:    fence,
		trFence:  cfg.Tracer.Handle(cfg.Workers, trace.CompCheckpoint),
		failed:   make(map[int]bool),
		failures: failures,
		restarts: make(chan int, cfg.Workers),
		doneCh:   make(chan struct{}),
		stopCh:   make(chan struct{}),
		lastCkpt: time.Now(),
	}
	// Start the silence clock at job launch so a worker that dies before
	// its first report is still detected; zero lastSeen would make such a
	// worker invisible to the failure detector forever.
	now := time.Now()
	for i := range m.lastSeen {
		m.lastSeen[i] = now
	}
	return m
}

// run is the master's main loop; it returns once the job has terminated
// (doneCh closed) or the master is stopped externally. It wakes on every
// message and tests for termination at once; the scheduling round (periodic,
// RoundHook) stays paced by the heartbeat.
func (m *master) run() {
	defer close(m.doneCh)
	tick := m.cfg.progressInterval
	nextRound := time.Now().Add(tick)
	var round int64
	for {
		select {
		case <-m.stopCh:
			// External stop (cancellation, timeout): tell the workers too,
			// so their pipelines drain immediately instead of spinning
			// until the caller's Wait tears them down.
			m.broadcast(msgStop, nil)
			return
		default:
		}
		if msg, ok := m.ep.RecvTimeout(time.Until(nextRound)); ok {
			m.handle(msg)
			// Drain whatever else is queued before doing periodic work.
			for {
				msg, ok := m.ep.RecvTimeout(0)
				if !ok {
					break
				}
				m.handle(msg)
			}
		}
		m.noteRestarts()
		now := time.Now()
		if !now.Before(nextRound) {
			nextRound = now.Add(tick)
			m.periodic()
			round++
			if m.cfg.RoundHook != nil {
				m.cfg.RoundHook(round)
			}
		}
		if m.checkTermination(now) {
			m.broadcast(msgStop, nil)
			return
		}
	}
}

func (m *master) handle(msg transport.Message) {
	switch msg.Type {
	case msgProgress:
		p, err := decodeProgress(msg.Payload)
		if err != nil || p.Worker < 0 || p.Worker >= m.cfg.Workers {
			return
		}
		m.reports[p.Worker] = p
		m.lastSeen[p.Worker] = time.Now()
		if m.failed[p.Worker] {
			delete(m.failed, p.Worker)
		}
		if p.AggSet {
			m.partials[p.Worker] = p.AggBytes
		}
	case msgStealReq:
		m.scheduleSteal(msg.From)
	case msgCheckpointDone:
		m.handleCkptAck(msg)
	}
}

// workerRestarted tells the master slot i's worker was replaced.
func (m *master) workerRestarted(i int) {
	select {
	case m.restarts <- i:
	case <-m.doneCh:
	}
}

// noteRestarts forgets what replaced workers last reported, after the
// mailbox was drained so a report the dead incarnation queued cannot undo
// it. The newcomer's migration counters restart from zero, so like after
// a detected failure the sent/recv sums may never match again.
func (m *master) noteRestarts() {
	for {
		select {
		case i := <-m.restarts:
			m.reports[i], m.lastSeen[i] = nil, time.Now()
			m.recovered = true
		default:
			return
		}
	}
}

// handleCkptAck collects per-worker checkpoint acks and commits the epoch
// to the MANIFEST once every worker acked. An epoch with any failed or
// silent worker never commits: commit means "all K files are durable",
// which is exactly what restore needs for a consistent cut.
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
		m.trFence.Event(trace.EvFenced, uint64(ack.Gen)<<8|uint64(msgCheckpointDone))
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
	m.ckptAcks[msg.From] = ack.CRC
	m.ackGens[msg.From] = ack.Gen
	m.ckptPending--
	if m.ckptPending > 0 || len(m.ckptAcks) != m.cfg.Workers {
		return
	}
	crcs := make([]uint32, m.cfg.Workers)
	gens := make([]int64, m.cfg.Workers)
	for w, crc := range m.ckptAcks {
		crcs[w] = crc
		gens[w] = m.ackGens[w]
	}
	if m.sink != nil {
		if err := m.sink.commit(m.epoch, crcs, gens); err != nil {
			m.ckptErr = err
		}
	}
}

// scheduleSteal picks the most heavily loaded worker (largest task-store
// backlog in the progress table) and orders it to migrate tasks to the
// requesting idle worker (§6.2). The batch is half the gap between the two
// stores — what levels them, so one round trip keeps the thief busy for as
// long as the victim still has work — and never under the steal batch: a gap
// smaller than that is not worth a migration.
func (m *master) scheduleSteal(thief int) {
	if !m.cfg.Stealing || m.ckptPending > 0 {
		return
	}
	victim, best := -1, int64(0)
	for i, r := range m.reports {
		if r == nil || i == thief || m.failed[i] {
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

// periodic runs aggregator sync, checkpoint triggering and failure
// detection.
func (m *master) periodic() {
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
		if m.ckptPending > 0 {
			// Abandon an epoch whose acks never arrive (a worker died
			// mid-checkpoint); the next epoch will supersede it.
			limit := 5 * m.cfg.CheckpointEvery
			if limit < 250*time.Millisecond {
				limit = 250 * time.Millisecond
			}
			if time.Since(m.lastCkpt) > limit {
				m.ckptPending = 0
			}
		}
		if m.ckptPending == 0 && (time.Since(m.lastCkpt) >= m.cfg.CheckpointEvery || m.barrier.Load()) {
			m.barrier.Store(false)
			m.epoch++
			// Workers already marked dead will never ack; do not wait on
			// them or the epoch stalls until the abandon timeout. (Such an
			// epoch is incomplete by construction and will not commit.)
			m.ckptPending = m.cfg.Workers - len(m.failed)
			m.ckptAcks = make(map[int]uint32)
			m.ackGens = make(map[int]int64)
			m.lastCkpt = time.Now()
			m.broadcast(msgCheckpointReq, encodeEpoch(m.epoch))
		}
	}

	// Failure detection.
	if m.cfg.FailTimeout > 0 {
		now := time.Now()
		for i := 0; i < m.cfg.Workers; i++ {
			if m.failed[i] || m.lastSeen[i].IsZero() {
				continue
			}
			if now.Sub(m.lastSeen[i]) > m.cfg.FailTimeout {
				m.failed[i] = true
				m.recovered = true
				m.lastPrint = nil
				// A dead worker's checkpoint ack will never arrive: abandon
				// the in-flight epoch now instead of letting it freeze task
				// stealing and termination until the ack timeout expires.
				m.ckptPending = 0
				if m.failures != nil {
					select {
					case m.failures <- i:
					default:
					}
				}
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

// committedEpoch returns the newest committed epoch, or noEpoch when
// nothing has committed (or the job has no sink).
func (m *master) committedEpoch() int64 {
	if m.sink == nil {
		return noEpoch
	}
	if man := m.sink.manifestView(); man != nil {
		return man.Epoch
	}
	return noEpoch
}

// checkTermination decides whether the job is over, by counting rather than
// timing (DESIGN.md, "Termination detection", has the argument). Once the
// table is quiescent the master issues a numbered probe wave; a report
// answers a wave if it echoes its number, i.e. was built after the probe
// arrived. Two consecutive waves, each answered by every worker, that both
// find the table quiescent with one fingerprint end the job: no task was
// owned or in flight at the instant the second wave went out (Mattern's
// four-counter rule). That needs reliable FIFO delivery and counters that
// survive, so a simulated latency, a chaos profile or a recovery keep the
// older test: the quiescent fingerprint must stand still for a window of
// report periods, widened by the latency and the longest chaos delay.
func (m *master) checkTermination(now time.Time) bool {
	if m.ckptPending > 0 {
		return false
	}
	print, answered, ok := m.quiescent()
	if !ok {
		m.lastPrint = nil
		return false
	}
	if m.recovered || m.cfg.Latency > 0 || m.cfg.Chaos != nil {
		if !equalInt64(print, m.lastPrint) {
			m.lastPrint, m.stableSince = print, now
		}
		need := 3
		if m.cfg.Latency > 0 {
			need += int(m.cfg.Latency/m.cfg.progressInterval)*2 + 1
		}
		if d := m.cfg.Chaos.MaxDelay(); d > 0 {
			need += int(d/m.cfg.progressInterval)*2 + 1
		}
		return now.Sub(m.stableSince) >= time.Duration(need)*m.cfg.progressInterval
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
// done, no alive task) and migrations balance (a recovery waives that).
// print is the per-worker (activity, sent, recv) fingerprint; answered says
// every report echoes the current probe wave.
func (m *master) quiescent() (print []int64, answered, ok bool) {
	var sent, recv int64
	print = make([]int64, 0, 3*m.cfg.Workers)
	answered = m.wave > 0
	for i, r := range m.reports {
		if r == nil || m.failed[i] || !r.SeedsDone || r.Inflight != 0 {
			return nil, false, false
		}
		sent += r.TasksSent
		recv += r.TasksRecv
		print = append(print, r.Activity, r.TasksSent, r.TasksRecv)
		answered = answered && r.Wave == m.wave
	}
	return print, answered, sent == recv || m.recovered
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
