package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/trace"
	"gminer/internal/transport"
)

// errCoordinatorShutdown is the cancel cause Close attaches to jobs it
// tears down: it marks the teardown as a coordinator restart rather than
// a user cancel, so the job's durable JOBSPEC survives for `-resume`.
var errCoordinatorShutdown = errors.New("cluster: coordinator shutdown")

// jobspecName is the durable per-job spec file the coordinator writes
// into the job's checkpoint directory at launch, next to the MANIFEST. A
// restarted coordinator rebuilds its job registry from these.
const jobspecName = "JOBSPEC"

// RemoteSessionConfig configures the coordinator side of a multi-process
// cluster.
type RemoteSessionConfig struct {
	// Listen is the coordinator's TCP listen address ("127.0.0.1:0" for an
	// ephemeral port).
	Listen string
	// Advertise is the address worker processes are told to dial; defaults
	// to the bound listen address.
	Advertise string
	// Logf, if non-nil, receives coordinator lifecycle lines (joins,
	// losses, rejections).
	Logf func(format string, args ...any)

	// resultTimeout bounds how long a finished job waits for every worker
	// process to ship its final records; zero is defaultResultTimeout. Only
	// tests shape it (export_test.go).
	resultTimeout time.Duration
}

const (
	// defaultFailTimeout is the process host's Config.FailTimeout when the
	// caller sets none: the silence after which a worker process is lost.
	defaultFailTimeout = 2 * time.Second
	// defaultResultTimeout is RemoteSessionConfig.resultTimeout's default.
	defaultResultTimeout = 60 * time.Second
)

// WorkerStatus is one worker slot's view in the coordinator's registry,
// exposed to the serving layer's health endpoint.
type WorkerStatus struct {
	Node     int       `json:"node"`
	Joined   bool      `json:"joined"`
	Addr     string    `json:"addr,omitempty"`
	LastSeen time.Time `json:"-"`
	// Generation counts how many times the slot was (re)claimed; >1 means
	// a replacement process took over after a loss. It doubles as the
	// slot's fencing token: traffic from older generations is refused.
	Generation int `json:"generation,omitempty"`
	// Draining marks a worker that received SIGTERM and is waiting for a
	// barrier checkpoint to commit before detaching.
	Draining bool `json:"draining,omitempty"`
}

// workerSlot is the coordinator's registry entry for one worker node: its
// status, plus what the process holds.
type workerSlot struct {
	WorkerStatus
	// held maps job ID → set of checkpoint epochs the process claimed to
	// hold local snapshot files for at join (coordinator-resume input).
	held map[string]map[int64]bool
}

// HeldJob is one resumable job a restarted coordinator found on disk
// (JOBSPEC + MANIFEST in its checkpoint directory). The serving layer
// resubmits these after the worker slots rejoin. It is also the JOBSPEC's
// JSON schema: everything Launch needs to reconstruct the job.
type HeldJob struct {
	ID                     string       `json:"id"`
	Spec                   jobspec.Spec `json:"spec"`
	CheckpointEverySeconds float64      `json:"checkpoint_every_seconds,omitempty"`
}

// RemoteSession names a Session on the process host. It remains only as an
// alias because the frozen benchmark module spells the type this way.
type RemoteSession = Session

// coordinator is a session's process host: its K engine workers live in
// other OS processes, each of which joins the coordinator's cluster
// listener and claims a worker slot. It holds what only that host needs —
// admission (the join handshake), the slots with their fencing
// generations, the control channel, drain, and the durable JOBSPECs a
// restarted coordinator resumes from. The coordinator owns the checkpoint
// MANIFEST and every job's master; worker processes own the partition
// tables, the task pipelines and the checkpoint payload files.
//
// Determinism is preserved across the process split: the partition
// assignment is a pure function of (graph, workers, partitioner) computed
// identically on every process, task IDs are worker-scoped, and the final
// record set is sorted after the per-worker results are merged — so a
// job's records are byte-identical to the same job on the goroutine host.
type coordinator struct {
	s           *Session
	rcfg        RemoteSessionConfig
	fence       *fenceTable
	fingerprint uint64 // the session's, which a joining process must present

	net *transport.RemoteNetwork
	ctl transport.Endpoint

	readyOnce sync.Once
	readyCh   chan struct{}
	ctlDone   chan struct{}

	// fencedSeen dedups fenced-traffic log lines per slot: a zombie can
	// emit thousands of frames before it notices it is dead, and one line
	// per (generation, message type) is all an operator needs. Trace events
	// still fire per refusal.
	fencedSeen []atomic.Int64

	mu    sync.Mutex // guards slots and held
	slots []workerSlot
	// held maps job IDs found on disk at a `-resume` start to their JOBSPEC
	// contents; a Launch of one of these IDs restores from the MANIFEST
	// instead of starting fresh.
	held map[string]HeldJob
}

// NewRemoteSession starts a session on the process host, the coordinator:
// it partitions the graph (for the fingerprint, edge-cut reporting and job
// masters), binds the cluster listener and begins admitting worker
// processes. Jobs may be launched immediately; their masters' traffic to
// not-yet-joined workers queues in the transport until the worker dials in
// (WaitReady avoids that warm-up). With Config.Resume it rebuilds the jobs a
// previous coordinator held from the JOBSPECs under CheckpointDir
// (HeldJobs); a Launch under one of their IDs resumes it.
func NewRemoteSession(g *graph.Graph, cfg Config, rcfg RemoteSessionConfig) (*Session, error) {
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("cluster: coordinator resume requires a checkpoint directory")
	}
	if cfg.Dynamic {
		return nil, fmt.Errorf("cluster: remote sessions do not support graph mutations (run single-process for -dynamic)")
	}
	// Every job's master runs the engine's failure detector: a worker
	// process can die on its own.
	if cfg.FailTimeout <= 0 {
		cfg.FailTimeout = defaultFailTimeout
	}
	rcfg.Listen = cmp.Or(rcfg.Listen, "127.0.0.1:0")
	rcfg.resultTimeout = cmp.Or(rcfg.resultTimeout, defaultResultTimeout)
	s, err := openSession(g, cfg)
	if err != nil {
		return nil, err
	}
	k := s.cfg.Workers
	c := &coordinator{
		s:          s,
		rcfg:       rcfg,
		fence:      newFenceTable(k),
		readyCh:    make(chan struct{}),
		ctlDone:    make(chan struct{}),
		fencedSeen: make([]atomic.Int64, k),
		slots:      make([]workerSlot, k),
	}
	s.coord = c
	c.fingerprint = s.Fingerprint()
	if cfg.Resume {
		c.held = scanHeldJobs(cfg.CheckpointDir)
		// The session-level Resume flag has done its work (the scan); jobs
		// resume individually by ID so fresh launches still start clean.
		s.cfg.Resume = false
	}

	c.net, err = transport.NewRemote(transport.RemoteConfig{
		Nodes:     k + 1,
		Local:     k, // the coordinator holds the master slot K
		Listen:    c.rcfg.Listen,
		Advertise: c.rcfg.Advertise,
		Hello:     c.handleHello,
		// Transport-level fencing refusals (frames a zombie sent after its
		// slot was reclaimed) surface as EvFenced trace events on every
		// live job, same as the control loop's app-level refusals.
		OnFenced: func(from int, typ uint8, gen, min uint32) {
			c.traceFenced(from, int64(gen), typ)
		},
	})
	if err != nil {
		return nil, err
	}
	s.closeNet = c.net.Close
	under := make([]transport.Endpoint, k+1)
	under[k] = c.net.Endpoint()
	s.mux = transport.NewMuxPaused(under)
	ctlEps, err := s.mux.Open(ctrlChannel, nil, nil)
	if err != nil {
		c.net.Close()
		return nil, err
	}
	c.ctl = ctlEps[k]
	s.mux.StartDemux()
	go c.ctlLoop()
	return s, nil
}

// scanHeldJobs walks the coordinator's checkpoint root for per-job
// subdirectories carrying both a JOBSPEC and a committed MANIFEST — jobs
// a previous coordinator process held when it died.
func scanHeldJobs(root string) map[string]HeldJob {
	held := make(map[string]HeldJob)
	entries, err := os.ReadDir(root)
	if err != nil {
		return held
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		b, err := os.ReadFile(filepath.Join(dir, jobspecName))
		if err != nil {
			continue
		}
		var jf HeldJob
		if decodeCtrl(b, &jf) != nil || jf.ID == "" || jf.ID != e.Name() {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
			// No committed epoch: nothing to resume from. Drop the stale
			// spec so the next fresh launch of this ID starts clean.
			_ = os.Remove(filepath.Join(dir, jobspecName))
			continue
		}
		held[jf.ID] = jf
	}
	return held
}

// HeldJobs lists the resumable jobs a `-resume` coordinator found on
// disk, sorted by ID; nil on the goroutine host. The serving layer
// resubmits each (same ID) once the worker slots have rejoined; Launch then
// restores it from the MANIFEST.
func (s *Session) HeldJobs() []HeldJob {
	c := s.coord
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]HeldJob, 0, len(c.held))
	for _, hj := range c.held {
		out = append(out, hj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleHello is the admission gate, invoked by the transport for every
// FrameHello received on an accepted connection. It decodes and validates
// the worker's join request, assigns (or re-assigns) a node slot, installs
// the peer address, rebroadcasts the topology, and starts every live job on
// the joiner — a replacement process after a crash rolls each job back to a
// committed cut.
func (c *coordinator) handleHello(payload []byte) []byte {
	reject := func(reason string) []byte {
		c.logf("join rejected: %s", reason)
		return encodeCtrl(welcomeFrame{Version: handshakeVersion, OK: false, Reason: reason})
	}
	h, err := decodeHello(payload)
	if err != nil {
		return reject(err.Error())
	}
	workers := c.s.cfg.Workers
	if err := validateHello(h, c.fingerprint, workers); err != nil {
		return reject(err.Error())
	}
	if c.s.closing() {
		return reject("cluster: coordinator shutting down")
	}

	now := time.Now()
	c.expire(now)
	c.mu.Lock()
	slot := int(h.Node)
	if slot < 0 {
		slot = c.pickSlotLocked()
	}
	if slot < 0 {
		c.mu.Unlock()
		return reject(fmt.Sprintf("cluster: all %d worker slots joined and live", workers))
	}
	st := &c.slots[slot]
	rejoin := st.Generation > 0
	st.Addr = h.Advertise
	st.Joined = true
	st.Draining = false
	st.LastSeen = now
	st.Generation++
	generation := st.Generation
	st.held = make(map[string]map[int64]bool, len(h.Held))
	for _, he := range h.Held {
		set := make(map[int64]bool, len(he.Epochs))
		for _, e := range he.Epochs {
			set[e] = true
		}
		st.held[he.JobID] = set
	}
	// Raise the fencing token BEFORE installing the peer address: from this
	// instant the previous holder of the slot is a zombie everywhere — the
	// transport drops its frames, the masters drop its acks, the sinks
	// refuse its commits.
	c.fence.raise(slot, int64(generation))
	c.net.FencePeer(slot, uint32(generation))
	c.net.SetPeer(slot, h.Advertise)

	peers, gens := c.peerTableLocked()
	c.mu.Unlock()

	c.logf("worker %d joined from %s (generation %d)", slot, h.Advertise, generation)
	c.broadcastTopology(peers, gens)
	// Start every live job on the joiner. A replacement taking over a slot
	// rolls each job back to a committed cut.
	for _, j := range c.s.liveJobs() {
		j.joined(slot, rejoin)
	}
	if c.s.Ready() {
		c.readyOnce.Do(func() { close(c.readyCh) })
	}
	return encodeCtrl(welcomeFrame{
		Version:    handshakeVersion,
		OK:         true,
		Node:       int32(slot),
		Workers:    int32(workers),
		Peers:      peers,
		Generation: int64(generation),
	})
}

// pickSlotLocked auto-assigns a slot: the lowest one not joined — never
// joined, released by a drain, or expired by the lease sweep (expire, run
// first at the caller's reading) — else -1. Caller holds c.mu.
func (c *coordinator) pickSlotLocked() int {
	for i := range c.slots {
		if !c.slots[i].Joined {
			return i
		}
	}
	return -1
}

// peerTableLocked builds the dial-address table and the matching slot
// generations: workers 0..K-1, the coordinator at K (generation 0: the
// coordinator is never fenced). Caller holds c.mu.
func (c *coordinator) peerTableLocked() ([]string, []int64) {
	k := len(c.slots)
	peers := make([]string, k+1)
	gens := make([]int64, k+1)
	for i := range c.slots {
		if c.slots[i].Joined {
			peers[i] = c.slots[i].Addr
		}
		gens[i] = int64(c.slots[i].Generation)
	}
	peers[k] = c.net.Addr()
	return peers, gens
}

// broadcastTopology tells every joined worker the current peer table and
// slot generations, so live workers learn a replacement's address, sever
// their stale connections to the dead process, and raise their transport
// fencing floor against it (a zombie's pull requests and task frames die
// at every peer, not just at the coordinator).
func (c *coordinator) broadcastTopology(peers []string, gens []int64) {
	payload := encodeCtrl(topologyMsg{Peers: peers, Gens: gens})
	for i, addr := range peers[:len(c.slots)] {
		if addr != "" {
			_ = c.ctl.Send(i, ctrlTopology, payload)
		}
	}
}

// slotState returns slot i's current generation and whether a process
// holds it.
func (c *coordinator) slotState(i int) (gen int64, joined bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.slots[i].Generation), c.slots[i].Joined
}

// expire is the lease sweep at the reading now: a joined slot whose process
// has been silent past the failure timeout is marked lost, job or no job, so
// /healthz degrades and an auto-assigned replacement may claim it. A slot
// whose process heartbeats stays joined: only a job's worker died there.
func (c *coordinator) expire(now time.Time) {
	timeout := c.s.cfg.FailTimeout
	c.mu.Lock()
	for i := range c.slots {
		if st := &c.slots[i]; st.Joined && now.Sub(st.LastSeen) > timeout {
			st.Joined = false
			defer c.logf("worker %d lost (silent past %s); awaiting replacement", i, timeout)
		}
	}
	c.mu.Unlock()
}

// ctlLoop feeds worker → coordinator control traffic to handle and sweeps the
// slot leases on every pass, at least four per failure timeout, at its reading.
func (c *coordinator) ctlLoop() {
	defer close(c.ctlDone)
	for {
		msg, ok := c.ctl.RecvTimeout(c.s.cfg.FailTimeout / 4)
		if !ok && c.s.mux.Closed() {
			return
		}
		now := time.Now()
		if ok {
			c.handle(msg, now)
		}
		c.expire(now)
	}
}

// handle applies one control message received on the pass whose clock reads
// now: a job's final result goes to its collector, a heartbeat renews a lease.
func (c *coordinator) handle(msg transport.Message, now time.Time) {
	switch msg.Type {
	case ctrlJobResult:
		var m jobResultMsg
		if err := decodeCtrl(msg.Payload, &m); err != nil {
			return
		}
		if c.fence.stale(m.Worker, m.Gen) {
			// A fenced-out process shipping a "final" result: its slot
			// has been reclaimed, and its partial output must not
			// supersede the replacement's.
			c.traceFenced(m.Worker, m.Gen, ctrlJobResult)
			return
		}
		c.s.mu.Lock()
		j := c.s.jobs[m.JobID]
		c.s.mu.Unlock()
		// A finished job's ID may be reused: the channel pins the result
		// to the launch it belongs to.
		if j != nil && j.ch.Load() == m.Channel {
			if m.Err != "" {
				j.cancelWith(fmt.Errorf("cluster: worker %d: %s", m.Worker, m.Err))
			}
			j.host.(*processHost).deliver(&m)
		}
	case ctrlHeartbeat:
		var m heartbeatMsg
		if decodeCtrl(msg.Payload, &m) != nil || msg.From < 0 || msg.From >= len(c.slots) {
			return
		}
		c.mu.Lock()
		st := &c.slots[msg.From]
		fenced := m.Gen < int64(st.Generation)
		if m.Gen == int64(st.Generation) {
			st.LastSeen = now
			// A heartbeat proves the process behind the slot's address is
			// alive; re-mark a slot the lease sweep expired. Only the CURRENT
			// generation may do this — a delayed zombie's heartbeat re-marking
			// the slot joined is exactly the split-brain fencing prevents.
			// (Nor may a draining worker, which is on its way out.)
			st.Joined = st.Joined || !m.Draining
			st.Draining = m.Draining
		}
		c.mu.Unlock()
		if fenced {
			c.traceFenced(msg.From, m.Gen, ctrlHeartbeat)
		}
	case ctrlDrain:
		var m drainMsg
		if err := decodeCtrl(msg.Payload, &m); err != nil {
			return
		}
		if c.fence.stale(msg.From, m.Gen) {
			c.traceFenced(msg.From, m.Gen, ctrlDrain)
			return
		}
		// The barrier wait can span seconds; never block the ctl loop
		// (checkpoint acks ride the engine channels, but results and
		// heartbeats ride this one).
		go c.handleDrain(msg.From, m.Gen)
	}
}

// traceFenced records a refused message from a fenced-out generation on
// every live job's tracer (arg = generation << 8 | message type). Called
// both from the control loop (app-level refusals) and the transport's
// OnFenced hook (frames dropped before any decoder saw them).
func (c *coordinator) traceFenced(from int, gen int64, typ uint8) {
	key := gen<<8 | int64(typ)
	if from >= 0 && from < len(c.fencedSeen) && c.fencedSeen[from].Swap(key) != key {
		c.logf("fenced: dropped message type %d from worker %d generation %d (slot is at %d)",
			typ, from, gen, c.fence.current(from))
	}
	for _, j := range c.s.liveJobs() {
		j.cfg.Tracer.Handle(from, trace.CompCheckpoint).Event(trace.EvFenced, uint64(gen)<<8|uint64(typ))
	}
}

// handleDrain services one worker's SIGTERM drain request: mark the slot
// draining — in the registry and in every live job's master, which from
// then on neither steals from it nor feeds it — force a barrier checkpoint
// on every live checkpointing job, wait for those epochs to commit, then
// tell the worker it may detach. On timeout (a peer died mid-barrier,
// checkpointing disabled, ...) the worker is released anyway — it has
// SIGTERM pending and holding it hostage helps nobody; its jobs recover
// through the normal rejoin path.
func (c *coordinator) handleDrain(node int, gen int64) {
	if node < 0 || node >= len(c.slots) {
		return
	}
	c.mu.Lock()
	if int64(c.slots[node].Generation) == gen {
		c.slots[node].Draining = true
	}
	c.mu.Unlock()
	before := make(map[*Job]int64) // newest committed epoch when the barrier was requested
	for _, j := range c.s.liveJobs() {
		j.master.requestDrain(node)
		if j.cfg.CheckpointEvery > 0 && j.cfg.CheckpointDir != "" && !j.Done() {
			before[j] = j.master.committedEpoch()
			j.master.requestBarrier()
		}
	}
	c.logf("worker %d draining (generation %d): forcing barrier checkpoint on %d job(s)", node, gen, len(before))
	deadline := time.NewTimer(c.rcfg.resultTimeout)
	defer deadline.Stop()
wait:
	for j, epoch := range before {
		for {
			committed := j.master.commitSignal()
			if j.master.committedEpoch() > epoch {
				break
			}
			select {
			case <-committed:
			case <-j.master.doneCh:
				continue wait
			case <-deadline.C:
				c.logf("worker %d drain: job %s barrier did not commit in time; releasing anyway", node, j.ID())
				break wait
			}
		}
	}
	_ = c.ctl.Send(node, ctrlDrainOK, encodeCtrl(drainMsg{Gen: gen}))
	// The released process exits now. Give its slot up at once rather than
	// after FailTimeout of silence: /healthz stays degraded until the
	// replacement joins (a rolling restart really goes one slot at a time).
	// The jobs' masters keep the slot draining until the replacement's join
	// rolls them back, so none ends on, or moves a task for, the leaver.
	c.mu.Lock()
	if int64(c.slots[node].Generation) == gen {
		c.slots[node].Joined = false
	}
	c.mu.Unlock()
	c.logf("worker %d released to detach (generation %d)", node, gen)
}

// WaitReady blocks until every worker slot has joined (or the timeout
// passes); the goroutine host is ready at once. Launching before ready
// works — early master traffic queues in the transport — but a serving
// daemon should gate its HTTP listener on readiness so the first job
// doesn't pay the join latency.
func (s *Session) WaitReady(timeout time.Duration) error {
	if s.coord == nil {
		return nil
	}
	select {
	case <-s.coord.readyCh:
		return nil
	case <-time.After(timeout):
	}
	if missing := s.missingSlots(); len(missing) > 0 {
		return fmt.Errorf("cluster: workers %v have not joined within %s", missing, timeout)
	}
	return nil
}

// Ready reports whether every worker slot is currently joined (always on
// the goroutine host).
func (s *Session) Ready() bool { return len(s.missingSlots()) == 0 }

func (s *Session) missingSlots() (missing []int) {
	for _, st := range s.WorkerHealth() {
		if !st.Joined {
			missing = append(missing, st.Node)
		}
	}
	return missing
}

// WorkerHealth returns the per-slot join/liveness view of the worker
// processes for /healthz; nil on the goroutine host, whose workers live
// exactly as long as the session.
func (s *Session) WorkerHealth() []WorkerStatus {
	c := s.coord
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, len(c.slots))
	for i, st := range c.slots {
		out[i] = st.WorkerStatus
		out[i].Node = i
	}
	return out
}

// Addr is the coordinator's cluster address, what worker processes dial to
// join; "" on the goroutine host.
func (s *Session) Addr() string {
	if s.coord == nil {
		return ""
	}
	return s.coord.net.Addr()
}

// FencedFrames counts inbound frames the coordinator's transport refused
// because their sender's generation had been fenced out — a zombie
// predecessor provably cut off, not split-braining the cluster. Always 0
// on the goroutine host.
func (s *Session) FencedFrames() int64 {
	if s.coord == nil {
		return 0
	}
	return s.coord.net.Fenced()
}

func (c *coordinator) logf(format string, args ...any) {
	if c.rcfg.Logf != nil {
		c.rcfg.Logf(format, args...)
	}
}
