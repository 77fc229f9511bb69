package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/core"
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
	// FailTimeout marks a worker process failed after this much silence
	// during a job (the engine's failure detector). Default 2s.
	FailTimeout time.Duration
	// ResultTimeout bounds how long a finished job waits for every worker
	// process to ship its final records. Default 60s.
	ResultTimeout time.Duration
	// Redial is the dial retry budget for coordinator → worker traffic.
	// The zero value inherits the transport default (10s): long enough to
	// bridge a worker-process restart.
	Redial transport.RedialPolicy
	// Logf, if non-nil, receives coordinator lifecycle lines (joins,
	// losses, rejections).
	Logf func(format string, args ...any)
}

func (c RemoteSessionConfig) withDefaults() RemoteSessionConfig {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 2 * time.Second
	}
	if c.ResultTimeout <= 0 {
		c.ResultTimeout = 60 * time.Second
	}
	return c
}

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

// workerSlot is the coordinator's registry entry for one worker node.
type workerSlot struct {
	addr       string
	joined     bool
	draining   bool
	lastSeen   time.Time
	generation int
	// held maps job ID → set of checkpoint epochs the process claimed to
	// hold local snapshot files for at join (coordinator-resume input).
	held map[string]map[int64]bool
}

// jobspecFile is the JOBSPEC JSON schema: everything Launch needs to
// reconstruct a held job on a restarted coordinator.
type jobspecFile struct {
	ID                     string       `json:"id"`
	Spec                   jobspec.Spec `json:"spec"`
	CheckpointEverySeconds float64      `json:"checkpoint_every_seconds,omitempty"`
}

// HeldJob is one resumable job a restarted coordinator found on disk
// (JOBSPEC + MANIFEST in its checkpoint directory). The serving layer
// resubmits these after the worker slots rejoin.
type HeldJob struct {
	ID                     string
	Spec                   jobspec.Spec
	CheckpointEverySeconds float64
}

// RemoteSession is a Session whose K engine workers live in other OS
// processes. It shares the session core with Session — registry, launch
// path, job teardown, and with them the whole serve-many-jobs surface
// (Launch, ActiveJobs, Close, ...) — and adds what a process host needs:
// admission (the join handshake), worker slots with fencing generations,
// the control channel, and the durable JOBSPECs a restarted coordinator
// resumes from. The coordinator owns the checkpoint MANIFEST and every
// job's master; worker processes own the partition tables, the task
// pipelines and the checkpoint payload files.
//
// Determinism is preserved across the process split: the partition
// assignment is a pure function of (graph, workers, partitioner) computed
// identically on every process, task IDs are worker-scoped, and the final
// record set is sorted after the per-worker results are merged — so a
// job's records are byte-identical to the same job on a single-process
// Session.
type RemoteSession struct {
	sessionCore // its mu also guards slots and resumable
	rcfg        RemoteSessionConfig
	fingerprint uint64

	net *transport.RemoteNetwork
	ctl transport.Endpoint

	readyOnce sync.Once
	readyCh   chan struct{}

	// fencedSeen dedups fenced-traffic log lines per slot: a zombie can
	// emit thousands of frames before it notices it is dead, and one line
	// per (generation, message type) is all an operator needs. Trace events
	// still fire per refusal.
	fencedSeen []atomic.Int64

	slots   []workerSlot
	ctlDone chan struct{}
	// resumable maps job IDs found on disk at a `-resume` start to their
	// JOBSPEC contents; a Launch of one of these IDs restores from the
	// MANIFEST instead of starting fresh.
	resumable map[string]HeldJob
}

// NewRemoteSession starts the coordinator: it partitions the graph (for
// the fingerprint, edge-cut reporting and job masters), binds the cluster
// listener and begins admitting worker processes. Jobs may be launched
// immediately; their masters' traffic to not-yet-joined workers queues in
// the transport until the worker dials in (WaitReady avoids that warm-up).
func NewRemoteSession(g *graph.Graph, cfg Config, rcfg RemoteSessionConfig) (*RemoteSession, error) {
	cfg = cfg.Defaults()
	rcfg = rcfg.withDefaults()
	if !g.Frozen() {
		return nil, fmt.Errorf("cluster: session graph must be frozen")
	}
	if cfg.Chaos != nil {
		return nil, fmt.Errorf("cluster: remote sessions do not support chaos injection")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("cluster: coordinator resume requires a checkpoint directory")
	}
	if cfg.Dynamic {
		return nil, fmt.Errorf("cluster: remote sessions do not support graph mutations (run single-process for -dynamic)")
	}

	// Every job's master runs the engine's failure detector on the
	// session's timeout.
	cfg.FailTimeout = rcfg.FailTimeout
	s := &RemoteSession{
		sessionCore: sessionCore{g: g, cfg: cfg, fence: newFenceTable(cfg.Workers), jobs: make(map[string]*Job)},
		rcfg:        rcfg,
		readyCh:     make(chan struct{}),
		slots:       make([]workerSlot, cfg.Workers),
		ctlDone:     make(chan struct{}),
		fencedSeen:  make([]atomic.Int64, cfg.Workers),
	}
	if cfg.Resume {
		s.resumable = scanHeldJobs(cfg.CheckpointDir)
		// The session-level Resume flag has done its work (the scan); jobs
		// resume individually by ID so fresh launches still start clean.
		s.cfg.Resume = false
	}

	pStart := time.Now()
	assign, err := cfg.Partitioner.Partition(g, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition: %w", err)
	}
	s.partitionTime = time.Since(pStart)
	s.assign = assign
	s.fingerprint = jobFingerprint(g, "session", core.Plan{}, s.cfg)

	nodes := cfg.Workers + 1
	s.net, err = transport.NewRemote(transport.RemoteConfig{
		Nodes:     nodes,
		Local:     cfg.Workers, // the coordinator holds the master slot K
		Listen:    rcfg.Listen,
		Advertise: rcfg.Advertise,
		Redial:    rcfg.Redial,
		Hello:     s.handleHello,
		// Transport-level fencing refusals (frames a zombie sent after its
		// slot was reclaimed) surface as EvFenced trace events on every
		// live job, same as the control loop's app-level refusals.
		OnFenced: func(from int, typ uint8, gen, min uint32) {
			s.traceFenced(from, int64(gen), typ)
		},
	})
	if err != nil {
		return nil, err
	}
	s.closeNet = s.net.Close
	under := make([]transport.Endpoint, nodes)
	under[cfg.Workers] = s.net.Endpoint()
	s.mux = transport.NewMuxPaused(under)
	ctlEps, err := s.mux.Open(ctrlChannel, nil, nil)
	if err != nil {
		s.net.Close()
		return nil, err
	}
	s.ctl = ctlEps[cfg.Workers]
	s.mux.StartDemux()
	go s.ctlLoop()
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
		var jf jobspecFile
		if json.Unmarshal(b, &jf) != nil || jf.ID == "" || jf.ID != e.Name() {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
			// No committed epoch: nothing to resume from. Drop the stale
			// spec so the next fresh launch of this ID starts clean.
			_ = os.Remove(filepath.Join(dir, jobspecName))
			continue
		}
		held[jf.ID] = HeldJob{ID: jf.ID, Spec: jf.Spec, CheckpointEverySeconds: jf.CheckpointEverySeconds}
	}
	return held
}

// HeldJobs lists the resumable jobs a `-resume` coordinator found on
// disk, sorted by ID. The serving layer resubmits each (same ID) once the
// worker slots have rejoined; Launch then restores it from the MANIFEST.
func (s *RemoteSession) HeldJobs() []HeldJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HeldJob, 0, len(s.resumable))
	for _, hj := range s.resumable {
		out = append(out, hj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleHello is the admission gate, invoked by the transport for every
// FrameHello received on an accepted connection. It decodes and validates
// the worker's join request, assigns (or re-assigns) a node slot, installs
// the peer address, rebroadcasts the topology, and (re)starts every live
// job on the joiner — the epoch-fallback rejoin path a replacement process
// takes after a crash.
func (s *RemoteSession) handleHello(payload []byte) []byte {
	reject := func(reason string) []byte {
		s.logf("join rejected: %s", reason)
		return encodeWelcome(welcomeFrame{OK: false, Reason: reason})
	}
	h, err := decodeHello(payload)
	if err != nil {
		return reject(err.Error())
	}
	if err := validateHello(h, s.fingerprint, s.cfg.Workers); err != nil {
		return reject(err.Error())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return reject("cluster: coordinator shutting down")
	}
	slot := int(h.Node)
	if slot < 0 {
		slot = s.pickSlotLocked()
	}
	if slot < 0 {
		s.mu.Unlock()
		return reject(fmt.Sprintf("cluster: all %d worker slots joined and live", s.cfg.Workers))
	}
	st := &s.slots[slot]
	rejoin := st.generation > 0
	st.addr = h.Advertise
	st.joined = true
	st.draining = false
	st.lastSeen = time.Now()
	st.generation++
	generation := st.generation
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
	s.fence.raise(slot, int64(generation))
	s.net.FencePeer(slot, uint32(generation))
	s.net.SetPeer(slot, h.Advertise)

	peers, gens := s.peerTableLocked()
	s.mu.Unlock()

	s.logf("worker %d joined from %s (generation %d)", slot, h.Advertise, generation)
	s.broadcastTopology(peers, gens)
	// (Re)start every live job on the joiner, restoring from the epochs its
	// MANIFEST vouches for. A replacement taking over a slot is a recovery.
	for _, j := range s.liveJobs() {
		if rejoin {
			_ = j.RecoverWorker(slot)
		} else if !j.Done() {
			_ = j.host.start(slot, j.refsFor(slot))
		}
	}
	if s.Ready() {
		s.readyOnce.Do(func() { close(s.readyCh) })
	}
	return encodeWelcome(welcomeFrame{
		OK:         true,
		Node:       int32(slot),
		Workers:    int32(s.cfg.Workers),
		Peers:      peers,
		Generation: int64(generation),
	})
}

// pickSlotLocked auto-assigns a slot: the first never/no-longer-joined
// one, else the stalest joined slot whose silence exceeds the failure
// timeout (its process is presumed dead), else -1. Caller holds s.mu.
func (s *RemoteSession) pickSlotLocked() int {
	for i := range s.slots {
		if !s.slots[i].joined {
			return i
		}
	}
	stalest, age := -1, s.rcfg.FailTimeout
	for i := range s.slots {
		if since := time.Since(s.slots[i].lastSeen); since > age {
			stalest, age = i, since
		}
	}
	return stalest
}

// peerTableLocked builds the dial-address table and the matching slot
// generations: workers 0..K-1, the coordinator at K (generation 0: the
// coordinator is never fenced). Caller holds s.mu.
func (s *RemoteSession) peerTableLocked() ([]string, []int64) {
	peers := make([]string, s.cfg.Workers+1)
	gens := make([]int64, s.cfg.Workers+1)
	for i := range s.slots {
		if s.slots[i].joined {
			peers[i] = s.slots[i].addr
		}
		gens[i] = int64(s.slots[i].generation)
	}
	peers[s.cfg.Workers] = s.net.Addr()
	return peers, gens
}

// broadcastTopology tells every joined worker the current peer table and
// slot generations, so live workers learn a replacement's address, sever
// their stale connections to the dead process, and raise their transport
// fencing floor against it (a zombie's pull requests and task frames die
// at every peer, not just at the coordinator).
func (s *RemoteSession) broadcastTopology(peers []string, gens []int64) {
	payload := encodeCtrl(topologyMsg{Peers: peers, Gens: gens})
	for i, addr := range peers[:s.cfg.Workers] {
		if addr != "" {
			_ = s.ctl.Send(i, ctrlTopology, payload)
		}
	}
}

// slotState returns slot i's current generation and whether a process
// holds it.
func (s *RemoteSession) slotState(i int) (gen int64, joined bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.slots[i].generation), s.slots[i].joined
}

// markLostIfSilent marks slot i lost when its process has been silent past
// the failure timeout, so /healthz degrades and the slot becomes claimable
// by an auto-assigned replacement. A slot whose process still heartbeats
// stays joined: there only a job's worker died, not the process.
func (s *RemoteSession) markLostIfSilent(i int) bool {
	s.mu.Lock()
	silent := time.Since(s.slots[i].lastSeen) > s.rcfg.FailTimeout
	if silent && s.slots[i].joined {
		s.slots[i].joined = false
		defer s.logf("worker %d lost (silent past %s); awaiting replacement", i, s.rcfg.FailTimeout)
	}
	s.mu.Unlock()
	return silent
}

// ctlLoop routes worker → coordinator control traffic: final job results
// to the owning job's collector, heartbeats to the health registry.
func (s *RemoteSession) ctlLoop() {
	defer close(s.ctlDone)
	for {
		msg, ok := s.ctl.Recv()
		if !ok {
			return
		}
		switch msg.Type {
		case ctrlJobResult:
			var m jobResultMsg
			if err := decodeCtrl(msg.Payload, &m); err != nil {
				continue
			}
			if s.fence.stale(m.Worker, m.Gen) {
				// A fenced-out process shipping a "final" result: its slot
				// has been reclaimed, and its partial output must not
				// supersede the replacement's.
				s.traceFenced(m.Worker, m.Gen, ctrlJobResult)
				continue
			}
			s.mu.Lock()
			j := s.jobs[m.JobID]
			s.mu.Unlock()
			// A finished job's ID may be reused: the channel pins the result
			// to the launch it belongs to.
			if j != nil && j.ch == m.Channel {
				j.host.(*processHost).deliver(&m)
			}
		case ctrlHeartbeat:
			var m heartbeatMsg
			if len(msg.Payload) > 0 {
				if err := decodeCtrl(msg.Payload, &m); err != nil {
					continue
				}
			}
			s.mu.Lock()
			if msg.From >= 0 && msg.From < len(s.slots) {
				st := &s.slots[msg.From]
				switch {
				case m.Gen == int64(st.generation):
					st.lastSeen = time.Now()
					// A heartbeat proves the process behind the slot's
					// address is alive; re-mark a slot the failure detector
					// gave up on. Only the CURRENT generation may do this —
					// a delayed zombie's heartbeat re-marking the slot
					// joined is exactly the split-brain fencing prevents. (Nor
					// may a draining worker, which is on its way out.)
					st.joined = st.joined || !m.Draining
					st.draining = m.Draining
				case m.Gen < int64(st.generation):
					s.mu.Unlock()
					s.traceFenced(msg.From, m.Gen, ctrlHeartbeat)
					continue
				}
			}
			s.mu.Unlock()
		case ctrlDrain:
			var m drainMsg
			if err := decodeCtrl(msg.Payload, &m); err != nil {
				continue
			}
			if s.fence.stale(msg.From, m.Gen) {
				s.traceFenced(msg.From, m.Gen, ctrlDrain)
				continue
			}
			// The barrier wait can span seconds; never block the ctl loop
			// (checkpoint acks ride the engine channels, but results and
			// heartbeats ride this one).
			go s.handleDrain(msg.From, m.Gen)
		}
	}
}

// traceFenced records a refused message from a fenced-out generation on
// every live job's tracer (arg = generation << 8 | message type). Called
// both from the control loop (app-level refusals) and the transport's
// OnFenced hook (frames dropped before any decoder saw them).
func (s *RemoteSession) traceFenced(from int, gen int64, typ uint8) {
	key := gen<<8 | int64(typ)
	if from >= 0 && from < len(s.fencedSeen) && s.fencedSeen[from].Swap(key) != key {
		s.logf("fenced: dropped message type %d from worker %d generation %d (slot is at %d)",
			typ, from, gen, s.fence.current(from))
	}
	for _, j := range s.liveJobs() {
		j.cfg.Tracer.Handle(from, trace.CompCheckpoint).Event(trace.EvFenced, uint64(gen)<<8|uint64(typ))
	}
}

// handleDrain services one worker's SIGTERM drain request: mark the slot
// draining, force a barrier checkpoint on every live checkpointing job,
// wait for those epochs to commit, then tell the worker it may detach.
// On timeout (a peer died mid-barrier, checkpointing disabled, ...) the
// worker is released anyway — it has SIGTERM pending and holding it
// hostage helps nobody; its jobs recover through the normal rejoin path.
func (s *RemoteSession) handleDrain(node int, gen int64) {
	if node < 0 || node >= len(s.slots) {
		return
	}
	s.mu.Lock()
	if int64(s.slots[node].generation) == gen {
		s.slots[node].draining = true
	}
	s.mu.Unlock()
	before := make(map[*Job]int64) // newest committed epoch when the barrier was requested
	for _, j := range s.liveJobs() {
		if j.cfg.CheckpointEvery > 0 && j.cfg.CheckpointDir != "" && !j.Done() {
			before[j] = j.master.committedEpoch()
			j.master.requestBarrier()
		}
	}
	s.logf("worker %d draining (generation %d): forcing barrier checkpoint on %d job(s)", node, gen, len(before))
	deadline := time.Now().Add(s.rcfg.ResultTimeout)
	for j, epoch := range before {
		for j.master.committedEpoch() <= epoch && !j.Done() {
			if time.Now().After(deadline) {
				s.logf("worker %d drain: job %s barrier did not commit in time; releasing anyway", node, j.ID())
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	_ = s.ctl.Send(node, ctrlDrainOK, encodeCtrl(drainMsg{Gen: gen}))
	// The released process exits now. Give its slot up at once rather than
	// after FailTimeout of silence: /healthz stays degraded until the
	// replacement joins (a rolling restart really goes one slot at a time),
	// and no running job terminates on the leaver's last report — it waits
	// for the replacement to report.
	s.mu.Lock()
	if int64(s.slots[node].generation) == gen {
		s.slots[node].joined = false
	}
	s.mu.Unlock()
	for _, j := range s.liveJobs() {
		j.master.workerRestarted(node)
	}
	s.logf("worker %d released to detach (generation %d)", node, gen)
}

// WaitReady blocks until every worker slot has joined (or the timeout
// passes). Launching before ready works — early master traffic queues in
// the transport — but a serving daemon should gate its HTTP listener on
// readiness so the first job doesn't pay the join latency.
func (s *RemoteSession) WaitReady(timeout time.Duration) error {
	select {
	case <-s.readyCh:
		return nil
	case <-time.After(timeout):
	}
	if missing := s.missingSlots(); len(missing) > 0 {
		return fmt.Errorf("cluster: workers %v have not joined within %s", missing, timeout)
	}
	return nil
}

// Ready reports whether every worker slot is currently joined.
func (s *RemoteSession) Ready() bool { return len(s.missingSlots()) == 0 }

func (s *RemoteSession) missingSlots() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var missing []int
	for i := range s.slots {
		if !s.slots[i].joined {
			missing = append(missing, i)
		}
	}
	return missing
}

// WorkerHealth returns the per-slot join/liveness view for /healthz.
func (s *RemoteSession) WorkerHealth() []WorkerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerStatus, len(s.slots))
	for i := range s.slots {
		out[i] = WorkerStatus{
			Node:       i,
			Joined:     s.slots[i].joined,
			Addr:       s.slots[i].addr,
			LastSeen:   s.slots[i].lastSeen,
			Generation: s.slots[i].generation,
			Draining:   s.slots[i].draining,
		}
	}
	return out
}

// Launch starts one mining job across the worker processes and returns its
// handle; the same contract as Session.Launch, plus the requirement that
// opt.Spec names the workload (worker processes rebuild the algorithm from
// the spec — a core.Algorithm value cannot cross a process boundary; the
// coordinator uses a only for its name and aggregator, and offers it no
// oriented view since it hosts no worker that could mine one). A job whose ID
// matches a JOBSPEC+MANIFEST found at a `-resume` start restores from its
// committed epochs instead of starting fresh.
func (s *RemoteSession) Launch(a core.Algorithm, opt JobOptions) (*Job, error) {
	if opt.Spec == nil {
		return nil, fmt.Errorf("cluster: remote launch requires JobOptions.Spec (worker processes rebuild the algorithm from it)")
	}
	if opt.Seeds != nil {
		return nil, fmt.Errorf("cluster: remote launch does not take JobOptions.Seeds (worker processes hold their own graph copy; mutations do not reach them yet)")
	}
	s.mu.Lock()
	_, resume := s.resumable[opt.ID]
	delete(s.resumable, opt.ID)
	s.mu.Unlock()
	j, err := s.launch(a, opt, launchSpec{
		resume:  resume,
		persist: opt.Spec,
		newHost: func(j *Job, _ core.Plan, _ []transport.Endpoint) (workerHost, error) {
			return newProcessHost(s, j, *opt.Spec), nil
		},
	})
	if err == nil && resume {
		s.logf("job %s resumed from committed checkpoint", j.ID())
	}
	return j, err
}

// Fingerprint identifies the resident graph plus the session topology;
// worker processes must present the same one to join.
func (s *RemoteSession) Fingerprint() uint64 { return s.fingerprint }

// Addr is the coordinator's cluster address (what workers dial to join).
func (s *RemoteSession) Addr() string { return s.net.Addr() }

// DroppedMessages counts stale mux traffic plus frames abandoned because a
// worker process stayed unreachable past the redial budget.
func (s *RemoteSession) DroppedMessages() int64 { return s.mux.Dropped() + s.net.Dropped() }

// FencedFrames counts inbound frames the coordinator's transport refused
// because their sender's generation had been fenced out — a zombie
// predecessor provably cut off, not split-braining the cluster.
func (s *RemoteSession) FencedFrames() int64 { return s.net.Fenced() }

// Close cancels any running jobs, waits for their teardown, and shuts the
// cluster transport down. Worker processes see their connections die and
// exit on their own schedule. The cancellation is attributed to
// coordinator shutdown, which keeps each job's durable JOBSPEC on disk: a
// restarted coordinator with `-resume` rebuilds and resumes those jobs.
func (s *RemoteSession) Close() {
	s.close(errCoordinatorShutdown)
	<-s.ctlDone
}

func (s *RemoteSession) logf(format string, args ...any) {
	if s.rcfg.Logf != nil {
		s.rcfg.Logf(format, args...)
	}
}
