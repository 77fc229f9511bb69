package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/chaos"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/spill"
	"gminer/internal/transport"
)

// WorkerOptions configures one worker process of a multi-process cluster.
type WorkerOptions struct {
	// Coordinator is the coordinator's cluster address (its -cluster-listen
	// advertise address).
	Coordinator string
	// Node is the slot this process claims: -1 (the default for fresh
	// fleets) asks the coordinator to assign one; an explicit index is how
	// a replacement process takes over a crashed worker's slot and
	// checkpoints.
	Node int
	// Listen is this process's TCP listen address ("127.0.0.1:0" default).
	Listen string
	// Advertise is the address peers dial to reach this worker; defaults
	// to the bound listen address.
	Advertise string
	// CheckpointDir is where this process keeps its per-job snapshot
	// files; a replacement process claiming the same slot must point at the
	// same directory (or a copy) to restore. Empty keeps a checkpointing
	// job's snapshots in a temporary root of this process, removed when the
	// job ends and at Close: a job's worker restarted within the process
	// restores, a replacement process does not.
	CheckpointDir string
	// JoinTimeout bounds the join handshake, redials included (default 30s
	// — a coordinator restart takes seconds).
	JoinTimeout time.Duration
	// HeartbeatEvery is the liveness report period (default 250ms).
	HeartbeatEvery time.Duration
	// Logf, if non-nil, receives worker lifecycle lines.
	Logf func(format string, args ...any)

	// heartbeatChaos, when set (tests only, see export_test.go), injects
	// faults (drops, delays, dups) into this worker's heartbeat path only —
	// the soak harness for "delayed but alive worker gets fenced, not
	// split-brained".
	heartbeatChaos *chaos.Controller
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Listen == "" {
		o.Listen = "127.0.0.1:0"
	}
	if o.JoinTimeout <= 0 {
		o.JoinTimeout = 30 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 250 * time.Millisecond
	}
	return o
}

// workerJob is one live job's state inside a worker process.
type workerJob struct {
	channel  uint64
	id       string
	w        *Worker
	counters *metrics.Counters
	done     chan struct{} // closed once runJob has torn the job down
	tmp      string        // the job's snapshot directory under the process's temporary root, if any
}

// WorkerProcess hosts one engine worker node in its own OS process: it
// joins a coordinator (handshake), builds its partition-local vertex table,
// then serves every job the coordinator starts over muxed channels of the
// shared remote transport. The graph and engine config must match the
// coordinator's byte for byte — the join fingerprint enforces it.
type WorkerProcess struct {
	g    *graph.Graph
	cfg  Config
	opt  WorkerOptions
	node int

	fingerprint uint64
	assign      *partition.Assignment
	tables      vertexTables // only this node's scan is materialized

	// oriented is the process-wide view for jobs that mine G⁺ (the resident
	// graph never changes under a process).
	oriented orientedView

	net *transport.RemoteNetwork
	mux *transport.Mux
	ctl transport.Endpoint

	// generation is this process's fencing token, assigned by the
	// coordinator's welcome: stamped on every transport frame, heartbeat,
	// checkpoint ack, result message and checkpoint filename.
	generation int64
	// draining is set when the process received SIGTERM and is waiting for
	// a barrier checkpoint to commit before detaching.
	draining atomic.Bool
	// drainOK is closed when the coordinator releases the process (its
	// jobs' barrier epochs committed).
	drainOK     chan struct{}
	drainOKOnce sync.Once

	stopCh  chan struct{}
	ctlDone chan struct{}  // closed when the control loop exits (transport down)
	loopWg  sync.WaitGroup // ctl + heartbeat loops (exit when the transport closes)
	jobWg   sync.WaitGroup // runJob goroutines (exit when their job stops)

	root spill.TempDir // holds checkpointing jobs' snapshots without a CheckpointDir

	mu     sync.Mutex
	jobs   map[uint64]*workerJob // a killed worker's job stays until its restart or the job's stop
	closed bool
}

// StartWorkerProcess joins the coordinator and starts serving jobs. It
// blocks through the handshake (dial retries within opt.JoinTimeout) and
// the partition-table build, then returns with the control loop running.
func StartWorkerProcess(g *graph.Graph, cfg Config, opt WorkerOptions) (*WorkerProcess, error) {
	cfg = cfg.Defaults()
	opt = opt.withDefaults()
	if !g.Frozen() {
		return nil, fmt.Errorf("cluster: worker graph must be frozen")
	}
	if opt.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator address")
	}
	if opt.Node >= cfg.Workers {
		return nil, fmt.Errorf("cluster: node %d of a %d-worker cluster", opt.Node, cfg.Workers)
	}

	cfg.CheckpointDir = opt.CheckpointDir // each job's snapshots go in a subdirectory
	wp := &WorkerProcess{
		g:       g,
		cfg:     cfg,
		opt:     opt,
		stopCh:  make(chan struct{}),
		ctlDone: make(chan struct{}),
		drainOK: make(chan struct{}),
		jobs:    make(map[uint64]*workerJob),
		root:    spill.TempDir{Pattern: "gminer-worker-"},
	}
	wp.fingerprint = jobFingerprint(g, "session", core.Plan{}, cfg)

	nodes := cfg.Workers + 1
	var err error
	wp.net, err = transport.NewRemote(transport.RemoteConfig{
		Nodes:     nodes,
		Local:     -1, // learned from the welcome
		Listen:    opt.Listen,
		Advertise: opt.Advertise,
	})
	if err != nil {
		return nil, err
	}

	hello := encodeHello(helloFrame{
		Version:     handshakeVersion,
		Node:        int32(opt.Node),
		Fingerprint: wp.fingerprint,
		Advertise:   wp.net.Addr(),
		Held:        scanHeldEpochs(opt.CheckpointDir, opt.Node),
	})
	reply, err := transport.JoinCluster(opt.Coordinator, hello,
		transport.RedialPolicy{Budget: opt.JoinTimeout}, wp.stopCh)
	if err != nil {
		wp.net.Close()
		return nil, err
	}
	wf, err := decodeWelcome(reply)
	if err != nil {
		wp.net.Close()
		return nil, err
	}
	if !wf.OK {
		wp.net.Close()
		return nil, fmt.Errorf("cluster: join refused: %s", wf.Reason)
	}
	if int(wf.Workers) != cfg.Workers {
		wp.net.Close()
		return nil, fmt.Errorf("cluster: coordinator runs %d workers, this process is configured for %d", wf.Workers, cfg.Workers)
	}
	wp.node = int(wf.Node)
	wp.generation = wf.Generation
	wp.net.SetLocal(wp.node)
	// Stamp every outgoing frame with this process's fencing token; if a
	// later generation ever claims the slot, peers drop our traffic on
	// arrival.
	wp.net.SetGeneration(uint32(wf.Generation))
	for i, addr := range wf.Peers {
		if addr != "" && i != wp.node {
			wp.net.SetPeer(i, addr)
		}
	}
	wp.logf("joined %s as worker %d (generation %d, listening on %s)", opt.Coordinator, wp.node, wp.generation, wp.net.Addr())

	// The assignment is a pure function of (graph, workers, partitioner),
	// so every process computes an identical one; only this node's vertex
	// table is materialized.
	wp.assign, err = cfg.Partitioner.Partition(g, cfg.Workers)
	if err != nil {
		wp.net.Close()
		return nil, fmt.Errorf("cluster: worker partition: %w", err)
	}
	own := make([]bool, cfg.Workers)
	own[wp.node] = true
	wp.tables = newVertexTables(g, wp.assign, own)

	// Open the control channel before demux starts: the coordinator sends
	// ctrlJobStart for every live job the moment the handshake completes,
	// and those frames may already sit in the network mailbox.
	under := make([]transport.Endpoint, nodes)
	under[wp.node] = wp.net.Endpoint()
	wp.mux = transport.NewMuxPaused(under)
	ctlEps, err := wp.mux.Open(ctrlChannel, nil, nil)
	if err != nil {
		wp.net.Close()
		return nil, err
	}
	wp.ctl = ctlEps[wp.node]
	wp.mux.StartDemux()

	wp.loopWg.Add(2)
	go wp.ctlLoop()
	go wp.heartbeatLoop()
	return wp, nil
}

// scanHeldEpochs lists the checkpoint epochs this process holds local
// snapshot files for, one heldEpochs entry per job subdirectory of root.
// Only a process claiming an explicit slot can name its files (the node
// index is part of the filename); auto-assigned workers send nothing.
func scanHeldEpochs(root string, node int) []heldEpochs {
	if root == "" || node < 0 {
		return nil
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil
	}
	var held []heldEpochs
	for _, e := range entries {
		if !e.IsDir() || len(e.Name()) > maxHeldJobID {
			continue
		}
		epochs := heldEpochsIn(filepath.Join(root, e.Name()), node)
		if len(epochs) == 0 {
			continue
		}
		held = append(held, heldEpochs{JobID: e.Name(), Epochs: epochs})
		if len(held) == maxHeldJobs {
			break
		}
	}
	return held
}

// Node returns the slot the coordinator assigned this process.
func (wp *WorkerProcess) Node() int { return wp.node }

// Generation returns the fencing token the coordinator assigned this
// process at admission.
func (wp *WorkerProcess) Generation() int64 { return wp.generation }

// Addr returns the address peers dial to reach this worker.
func (wp *WorkerProcess) Addr() string { return wp.net.Addr() }

// Done is closed when the control link to the coordinator goes down (the
// coordinator exited, or Close/Kill tore the transport). A worker CLI
// blocks on it to exit alongside its coordinator.
func (wp *WorkerProcess) Done() <-chan struct{} { return wp.ctlDone }

// ctlLoop serves the coordinator's control channel until the transport
// closes.
func (wp *WorkerProcess) ctlLoop() {
	defer wp.loopWg.Done()
	defer close(wp.ctlDone)
	for {
		msg, ok := wp.ctl.Recv()
		if !ok {
			return
		}
		switch msg.Type {
		case ctrlJobStart:
			var m jobStartMsg
			if err := decodeCtrl(msg.Payload, &m); err != nil {
				wp.logf("bad job start: %v", err)
				continue
			}
			wp.startJob(&m)
		case ctrlJobStop:
			var m jobStopMsg
			if err := decodeCtrl(msg.Payload, &m); err != nil {
				continue
			}
			wp.mu.Lock()
			wj := wp.jobs[m.Channel]
			wp.mu.Unlock()
			switch {
			case wj == nil:
			case m.Kill:
				wj.w.kill()
			case wj.w.killed.Load(): // the job ended before the killed worker's restart
				<-wj.done
				wp.endJob(wj)
			default:
				wj.w.stop()
			}
		case ctrlTopology:
			var m topologyMsg
			if err := decodeCtrl(msg.Payload, &m); err != nil {
				continue
			}
			for i, addr := range m.Peers {
				if addr != "" && i != wp.node {
					wp.net.SetPeer(i, addr)
				}
			}
			// Raise the transport fencing floor for every peer slot: a
			// zombie predecessor's pull requests and task frames die at
			// this worker's doorstep, not in its engine.
			for i, gen := range m.Gens {
				if i != wp.node && gen > 0 {
					wp.net.FencePeer(i, uint32(gen))
				}
			}
		case ctrlDrainOK:
			var m drainMsg
			if err := decodeCtrl(msg.Payload, &m); err != nil {
				continue
			}
			if m.Gen == wp.generation {
				wp.drainOKOnce.Do(func() { close(wp.drainOK) })
			}
		}
	}
}

// heartbeatLoop reports liveness to the coordinator for /healthz and slot
// reclamation. Each beat carries this process's fencing generation (so a
// delayed zombie's beat cannot re-mark a reclaimed slot as joined) and
// its draining state. With heartbeatChaos set, beats route through the
// fault-injecting endpoint wrapper — drops and delays on this path are
// exactly what the fencing soak exercises.
func (wp *WorkerProcess) heartbeatLoop() {
	defer wp.loopWg.Done()
	ep := wp.ctl
	if wp.opt.heartbeatChaos != nil {
		ep = wp.opt.heartbeatChaos.Wrap(ep)
	}
	t := time.NewTicker(wp.opt.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-wp.stopCh:
			return
		case <-t.C:
			hb := encodeCtrl(heartbeatMsg{Gen: wp.generation, Draining: wp.draining.Load()})
			_ = ep.Send(wp.cfg.Workers, ctrlHeartbeat, hb)
		}
	}
}

// startJob opens the job's mux channel, builds this node's engine worker —
// restoring from the newest committed epoch the coordinator vouched for,
// when the start message carries resume refs — and runs the job to
// completion on its own goroutine.
func (wp *WorkerProcess) startJob(m *jobStartMsg) {
	wp.mu.Lock()
	old := wp.jobs[m.Channel]
	closed := wp.closed
	wp.mu.Unlock()
	if closed || (old != nil && !old.w.killed.Load()) {
		// Shutdown race, or a duplicate start for a worker that is still
		// running (a coordinator retry): ignore.
		return
	}
	if old != nil {
		// Restart of a killed worker: let its teardown release the channel.
		<-old.done
	}

	spec := m.Spec.Normalize()
	algo, err := jobspec.Build(wp.g, spec)
	if err != nil {
		// The coordinator validated the same spec; disagreeing here means a
		// version skew the handshake should have caught.
		wp.nack(m, fmt.Errorf("cannot build %q: %w", spec.App, err))
		return
	}
	tables := wp.oriented.tables(core.PlanOf(algo), wp.g, wp.assign, 0, wp.tables)

	cfg := jobConfig(wp.cfg, m.JobID, time.Duration(m.CheckpointEverySeconds*float64(time.Second)))
	var tmp string
	if cfg.CheckpointDir == "" && (cfg.CheckpointEvery > 0 || len(m.Resume) > 0) {
		root, err := wp.root.Path()
		if err != nil {
			wp.nack(m, fmt.Errorf("checkpoint: %w", err))
			return
		}
		tmp = filepath.Join(root, m.JobID)
		cfg.CheckpointDir = tmp
	}
	// resume=true keeps existing snapshot files (a restart after a kill, or
	// a rejoin after a crash; the refs below vouch for them). A fresh start
	// clears leftovers from any previous job sharing the directory.
	sink, err := newSnapshotSink(cfg.CheckpointDir, cfg.Workers, wp.fingerprint, wp.generation, len(m.Resume) > 0)
	if err != nil {
		wp.nack(m, fmt.Errorf("checkpoint sink: %w", err))
		return
	}

	counters := &metrics.Counters{}
	perNode := make([]*metrics.Counters, cfg.Workers+1)
	perNode[wp.node] = counters
	eps, err := wp.mux.Open(m.Channel, perNode, nil)
	if err != nil {
		wp.nack(m, fmt.Errorf("open channel %d: %w", m.Channel, err))
		return
	}
	w, restored, err := buildWorker(wp.node, cfg, algo, tables, eps[wp.node], counters, sink, m.Resume, false)
	if err != nil {
		wp.mux.CloseChannel(m.Channel)
		wp.nack(m, fmt.Errorf("worker build: %w", err))
		return
	}
	if restored != noEpoch {
		wp.logf("job %s: restored from committed epoch %d", m.JobID, restored)
	} else if len(m.Resume) > 0 {
		wp.logf("job %s: none of %d committed epoch(s) restorable; starting fresh", m.JobID, len(m.Resume))
	}

	wj := &workerJob{channel: m.Channel, id: m.JobID, w: w, counters: counters, done: make(chan struct{}), tmp: tmp}
	wp.mu.Lock()
	if wp.closed {
		wp.mu.Unlock()
		w.stop()
		w.spiller.Close()
		wp.mux.CloseChannel(m.Channel)
		return
	}
	wp.jobs[m.Channel] = wj
	wp.jobWg.Add(1) // under mu: shutdown sets closed, then Waits
	wp.mu.Unlock()

	w.start()
	go wp.runJob(wj)
}

// nack tells the coordinator that this process cannot start job m's worker:
// a result carrying err, on which the coordinator fails the job at once.
func (wp *WorkerProcess) nack(m *jobStartMsg, err error) {
	wp.logf("job %s: %v", m.JobID, err)
	res := jobResultMsg{Channel: m.Channel, JobID: m.JobID, Worker: wp.node, Gen: wp.generation, Err: err.Error()}
	_ = wp.ctl.Send(wp.cfg.Workers, ctrlJobResult, encodeCtrl(res))
}

// runJob waits out one job's pipeline (the engine worker stops itself on
// the master's msgStop broadcast, or on ctrlJobStop), then ships the final
// records and counters to the coordinator and tears the channel down.
func (wp *WorkerProcess) runJob(wj *workerJob) {
	defer wp.jobWg.Done()
	defer close(wj.done)
	<-wj.w.stopCh
	// A stop that did not come through the comm loop (ctrlJobStop, Kill,
	// Close) leaves it blocked in Recv; closing the job's mailbox frees it.
	_ = wj.w.ep.Close()
	wj.w.wg.Wait()

	if !wj.w.killed.Load() {
		res := wj.w.result(wj.counters)
		res.Channel, res.JobID, res.Gen = wj.channel, wj.id, wp.generation
		_ = wp.ctl.Send(wp.cfg.Workers, ctrlJobResult, encodeCtrl(res))
	}
	wj.w.spiller.Close()
	wj.w.snapshots.close()
	wp.mux.CloseChannel(wj.channel)
	if !wj.w.killed.Load() {
		wp.endJob(wj)
	}
}

// endJob forgets a job whose worker here has ended and removes its snapshots
// from the temporary root. A killed worker's job ends only at its restart's
// end, or at the job's stop: until then its restart may restore from them.
func (wp *WorkerProcess) endJob(wj *workerJob) {
	wp.mu.Lock()
	delete(wp.jobs, wj.channel)
	wp.mu.Unlock()
	if wj.tmp != "" {
		_ = os.RemoveAll(wj.tmp)
	}
}

// Drain performs the graceful-detach protocol (the SIGTERM path of a
// rolling restart): enter the draining state, ask the coordinator to
// force a barrier checkpoint across every live job, and wait until the
// coordinator confirms those epochs committed (ctrlDrainOK). On return
// the caller should Close(); the in-flight work is durable, and a
// replacement process rejoining the slot resumes it from the barrier
// epoch. Returns an error if the coordinator did not release the process
// within the timeout (callers typically Close anyway — SIGTERM is not a
// negotiation — accepting that un-checkpointed progress is redone).
func (wp *WorkerProcess) Drain(timeout time.Duration) error {
	wp.mu.Lock()
	closed := wp.closed
	wp.mu.Unlock()
	if closed {
		return nil
	}
	wp.draining.Store(true)
	wp.logf("draining worker %d (generation %d): requesting barrier checkpoint", wp.node, wp.generation)
	_ = wp.ctl.Send(wp.cfg.Workers, ctrlDrain, encodeCtrl(drainMsg{Gen: wp.generation}))
	select {
	case <-wp.drainOK:
		wp.logf("drain complete: epochs committed, detaching")
		return nil
	case <-wp.ctlDone:
		return fmt.Errorf("cluster: drain: control link to coordinator went down")
	case <-time.After(timeout):
		return fmt.Errorf("cluster: drain: coordinator did not release worker %d within %s", wp.node, timeout)
	}
}

// Draining reports whether the process has entered the draining state.
func (wp *WorkerProcess) Draining() bool { return wp.draining.Load() }

// FencedFrames counts inbound frames this process's transport refused
// because their sender's generation had been fenced out (a zombie
// predecessor of some peer slot).
func (wp *WorkerProcess) FencedFrames() int64 { return wp.net.Fenced() }

// Kill simulates a machine crash for tests: every live engine worker dies
// silently (nothing is flushed or shipped) and the process's transport
// drops off the network, exactly like a SIGKILL'd process.
func (wp *WorkerProcess) Kill() { wp.shutdown(true) }

// Close shuts the worker process down gracefully: live jobs are stopped
// (their partial results still ship if the transport is up), then the
// transport closes.
func (wp *WorkerProcess) Close() { wp.shutdown(false) }

func (wp *WorkerProcess) shutdown(crash bool) {
	wp.mu.Lock()
	if wp.closed {
		wp.mu.Unlock()
		return
	}
	wp.closed = true
	jobs := make([]*workerJob, 0, len(wp.jobs))
	for _, wj := range wp.jobs {
		jobs = append(jobs, wj)
	}
	wp.mu.Unlock()
	for _, wj := range jobs {
		if crash {
			wj.w.kill()
		} else {
			wj.w.stop()
		}
	}
	close(wp.stopCh)
	if !crash {
		// Let runJob goroutines ship results before the transport dies; they
		// finish quickly once their workers stop.
		done := make(chan struct{})
		go func() {
			wp.jobWg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}
	wp.mux.Close()
	wp.net.Close()
	wp.mux.WaitDemux()
	wp.jobWg.Wait()
	wp.loopWg.Wait()
	wp.root.Close()
}

func (wp *WorkerProcess) logf(format string, args ...any) {
	if wp.opt.Logf != nil {
		wp.opt.Logf(format, args...)
	}
}
