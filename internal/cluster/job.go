package cluster

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/chaos"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/trace"
)

// ErrCancelled is returned by Wait when the job was cancelled (Cancel, a
// serving-layer admission decision, or a memory-budget abort — the latter
// also wraps memctl.ErrOOM).
var ErrCancelled = errors.New("cluster: job cancelled")

// Result summarizes a finished job.
type Result struct {
	// Records are all emitted output records, merged across workers and
	// sorted for determinism.
	Records []string
	// AggGlobal is the final merged aggregator value (nil if none).
	AggGlobal any
	// Elapsed is the mining time (excludes partitioning).
	Elapsed time.Duration
	// PartitionTime is the static partitioning time (Figure 11 reports it
	// separately from job time).
	PartitionTime time.Duration
	// PerWorker holds each worker's final counters; Total is their sum
	// (plus the master's traffic).
	PerWorker []metrics.Snapshot
	Total     metrics.Snapshot
	// Timeline is the cluster-wide utilization timeline when sampling was
	// enabled (Figures 5–6).
	Timeline []metrics.TimelinePoint
	// EdgeCut is the partitioning edge-cut fraction.
	EdgeCut float64
	// Recovered counts the job's rollbacks during the run: each restarted
	// every worker from one committed epoch, or all of them fresh.
	Recovered int
	// ResidentLists and ResidentBytes size the job's resident set: the
	// forward lists of G⁺ every worker held beside its own partition, and
	// what one copy of them weighs. 0 for a job on the undirected graph.
	// ResidentRows counts the resident lists the view's resident core held
	// as bit rows (kernels.ResidentCore; 0 when the view offered none).
	ResidentLists int
	ResidentBytes int64
	ResidentRows  int
	// LastCheckpointErr is the most recent checkpoint persist/commit
	// failure observed during the run (nil when every epoch landed). The
	// job still completes — durability degraded, correctness did not — but
	// callers relying on -resume must know their snapshots may be stale.
	LastCheckpointErr error
	// Phases holds the tracer's per-phase latency percentiles (task
	// round, pull RTT, spill I/O, migration, checkpoint) when a tracer
	// was attached via Config.Tracer; nil otherwise.
	Phases []trace.PhaseSummary
}

// CPUUtil returns the average computing-thread utilization of the run.
func (r *Result) CPUUtil(cfg Config) float64 {
	return r.Total.CPUUtil(r.Elapsed, cfg.Workers*cfg.Threads)
}

// Job is a running G-Miner job.
type Job struct {
	cfg Config

	// Every job runs on a session: sess owns the resident graph and its
	// partition (stable while the job holds its graph-epoch lease), the
	// transport the job's mux channel ch is laid over and the registry the
	// job leaves at the end of Wait; host is where its workers live. Each
	// attempt of the job has a channel of its own: a rollback moves ch.
	sess *Session
	ch   atomic.Uint64
	host workerHost
	// specFile is the durable JOBSPEC a coordinator wrote next to the job's
	// MANIFEST ("" when the session keeps none); it outlives a coordinator
	// shutdown — so `-resume` can rebuild the job — but not a normal
	// completion or user cancel.
	specFile string

	master *master
	sink   *snapshotSink

	counters []*metrics.Counters // one per node (workers + master)
	sampler  *metrics.Sampler

	// pin is the committed epoch every worker of the current attempt
	// restores from, noEpoch for a fresh start: set at build, then by
	// rollback on the master's goroutine.
	pin int64

	started   time.Time
	recovered atomic.Int64

	cancelOnce sync.Once
	cancelMu   sync.Mutex
	cancelErr  error

	waitOnce sync.Once
	result   *Result
	err      error
}

// Start partitions the graph and launches the cluster: a throwaway session
// holding exactly this job, closed at the end of the job's Wait. The graph
// must be frozen.
func Start(g *graph.Graph, algo core.Algorithm, cfg Config) (*Job, error) {
	if cfg.Dynamic {
		return nil, fmt.Errorf("cluster: graph mutations need a warm Session (Config.Dynamic is meaningless for a single-shot job)")
	}
	s, err := NewSession(g, cfg)
	if err != nil {
		return nil, err
	}
	s.oneShot = true
	j, err := s.Launch(algo, JobOptions{Tracer: cfg.Tracer})
	if err != nil {
		s.Close()
	}
	return j, err
}

// refFor names worker i's snapshot in the attempt's pinned epoch, nil for a
// fresh start.
func (j *Job) refFor(i int) *resumeEpochRef {
	crcs := j.sink.manifestView().crcsFor(j.pin)
	if i >= len(crcs) {
		return nil
	}
	return &resumeEpochRef{Epoch: j.pin, CRC: crcs[i]}
}

// startWorkers brings every slot's worker of the first attempt up, before
// the master runs.
func (j *Job) startWorkers() error {
	for i := 0; i < j.cfg.Workers; i++ {
		if err := j.host.start(i, j.refFor(i)); err != nil {
			return err
		}
	}
	return nil
}

// heldEpoch is the newest committed epoch every slot holds, noEpoch if
// none: the one consistent cut every worker can restore.
func (j *Job) heldEpoch() int64 {
pick:
	for _, epoch := range j.sink.manifestView().epochs() {
		for i := 0; i < j.cfg.Workers; i++ {
			if !j.host.holds(i, epoch) {
				continue pick
			}
		}
		return epoch
	}
	return noEpoch
}

// rollback retires the current attempt and starts the next: a fresh mux
// channel, so every frame of the old attempt dies at the demux — reports,
// MIGRATE orders, task batches, checkpoint acks, results — the master's
// progress table reset, and every worker restored from the newest committed
// epoch all slots hold, or all fresh. It is the one restore path: the
// workers of one attempt always start from one cut. rejoined is the slot
// whose loss caused it. It runs on the master's goroutine, on the clock
// reading now of its pass.
func (j *Job) rollback(rejoined int, now time.Time) error {
	ch, err := j.sess.channel()
	if err != nil {
		return err
	}
	eps, err := j.sess.openAttempt(ch, j.cfg, j.counters)
	if err != nil {
		return err
	}
	j.sess.mux.CloseChannel(j.ch.Swap(ch))
	j.host.retire(eps[:j.cfg.Workers])
	j.master.reset(eps[j.cfg.Workers], rejoined, now)
	j.pin = j.heldEpoch()
	j.recovered.Add(1)
	for i := 0; i < j.cfg.Workers; i++ {
		if err := j.host.start(i, j.refFor(i)); err != nil {
			return err
		}
	}
	return nil
}

// runCrash executes one scheduled chaos crash: kill the worker at cr.At,
// then bring it back — after cr.RecoverAfter if set, by the master's failure
// detector if it runs one, or after a short fallback delay so an unattended
// run still terminates.
func (j *Job) runCrash(cr chaos.Crash) {
	t := time.NewTimer(cr.At)
	defer t.Stop()
	select {
	case <-j.master.doneCh:
		return
	case <-t.C:
	}
	j.KillWorker(cr.Node)
	wait := cr.RecoverAfter
	if wait <= 0 {
		if j.cfg.FailTimeout > 0 {
			return
		}
		wait = 25 * j.cfg.progressInterval
	}
	t2 := time.NewTimer(wait)
	defer t2.Stop()
	select {
	case <-j.master.doneCh:
		return
	case <-t2.C:
	}
	_ = j.RecoverWorker(cr.Node)
}

// Run starts a job and waits for its result.
func Run(g *graph.Graph, algo core.Algorithm, cfg Config) (*Result, error) {
	j, err := Start(g, algo, cfg)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// KillWorker simulates a crash of worker i: its pipeline stops without
// flushing anything, the job's mailbox for that node is wiped (in-flight
// messages to it are lost) and it stops serving pull requests until the job
// recovers. Co-resident jobs of the same session are untouched. A no-op on
// a finished job.
func (j *Job) KillWorker(i int) { j.host.kill(i) }

// RecoverWorker rolls the job back if worker i is known lost (killed, or on
// the process host replaced by a new process): every worker restarts from
// the newest committed epoch all of them hold — a torn or corrupt snapshot
// found while picking it moves the pin one epoch back (traced as
// EvRestoreFail) — or, with none, all from scratch, which is safe because
// every un-checkpointed result dies with the attempt. A no-op on a live
// worker or a finished job; a rollback that fails fails the job.
func (j *Job) RecoverWorker(i int) (err error) {
	j.master.do(func(now time.Time) { err = j.recoverLost(i, now) })
	return err
}

// recoverLost is RecoverWorker on the master's goroutine: the master's
// failure detector offers it each suspect slot.
func (j *Job) recoverLost(i int, now time.Time) error {
	if !j.host.lost(i) {
		return nil
	}
	err := j.rollback(i, now)
	if err != nil {
		j.cancelWith(err)
	}
	return err
}

// joined starts the job on a process that just joined slot i: a slot's
// first process starts the current attempt's worker at its pin, like a
// worker that starts late; a replacement rolls the job back.
func (j *Job) joined(i int, replacement bool) {
	if replacement {
		_ = j.RecoverWorker(i)
		return
	}
	j.master.do(func(time.Time) { _ = j.host.start(i, j.refFor(i)) })
}

// Wait blocks until the job terminates and returns the merged result.
func (j *Job) Wait() (*Result, error) {
	j.waitOnce.Do(func() {
		<-j.master.doneCh
		elapsed := time.Since(j.started)

		// The master has terminated (or been stopped), which broadcast
		// msgStop. Stop the workers explicitly too, close the job's mux
		// channel so blocked comm loops unblock (the session's transport
		// stays up for other jobs), then gather what each worker produced —
		// after which the host holds no worker, algorithm or vertex table: a
		// finished job is its Result, whoever keeps the *Job.
		// The job stays registered until the results are in: a process host
		// routes them by registry lookup.
		j.host.stop()
		j.sess.mux.CloseChannel(j.ch.Load())
		results, collectErr := j.host.collect()
		j.sink.close()
		j.sess.forget(j.cfg.jobID)

		res := &Result{
			Elapsed:       elapsed,
			PartitionTime: j.sess.partitionTime,
			EdgeCut:       j.sess.edgeCut(),
			AggGlobal:     j.master.globalAgg(),
			Recovered:     int(j.recovered.Load()),
		}
		for _, r := range results {
			res.Records = append(res.Records, r.Records...)
			res.PerWorker = append(res.PerWorker, r.Counters)
			res.Total = res.Total.Add(r.Counters)
			if r.CkptErr != "" {
				res.LastCheckpointErr = errors.New(r.CkptErr)
			}
			if r.ResidentLists > 0 {
				res.ResidentLists, res.ResidentBytes, res.ResidentRows = r.ResidentLists, r.ResidentBytes, r.ResidentRows
			}
		}
		// The master's own traffic is node K's counters.
		res.Total = res.Total.Add(j.counters[j.cfg.Workers].Snapshot())
		if j.master.ckptErr != nil {
			res.LastCheckpointErr = j.master.ckptErr
		}
		sort.Strings(res.Records)
		if j.sampler != nil {
			res.Timeline = j.sampler.Stop()
		}
		res.Phases = j.cfg.Tracer.Summary()
		j.result = res
		j.cancelMu.Lock()
		j.err = j.cancelErr
		if j.err == nil {
			j.err = collectErr
		}
		j.cancelMu.Unlock()
		if j.specFile != "" && !errors.Is(j.err, errCoordinatorShutdown) {
			_ = os.Remove(j.specFile)
		}
		// The result — which still reads the shared graph — is assembled:
		// drop the graph-epoch read lease, so a pending mutation batch can
		// apply once no job is touching the graph.
		j.sess.epochMu.RUnlock()
		if j.sess.oneShot {
			j.sess.Close()
		}
	})
	return j.result, j.err
}

// Stop aborts a running job.
func (j *Job) Stop() {
	j.master.stop()
}

// Cancel cooperatively cancels a running job: the master broadcasts stop,
// workers drain their queues without running further task rounds, and Wait
// returns ErrCancelled alongside whatever partial state was merged. A job
// that already terminated is unaffected (Wait keeps its nil error).
func (j *Job) Cancel() { j.cancelWith(ErrCancelled) }

// CancelCause cancels like Cancel but attributes a cause: Wait's error
// wraps both ErrCancelled and cause, so callers can distinguish a user
// cancel from, say, a QoS preemption with errors.Is. A nil cause is a
// plain Cancel. Safe to call from JobOptions.RoundHook.
func (j *Job) CancelCause(cause error) {
	if cause == nil {
		j.Cancel()
		return
	}
	j.cancelWith(fmt.Errorf("%w: %w", ErrCancelled, cause))
}

func (j *Job) cancelWith(err error) {
	j.cancelOnce.Do(func() {
		if !j.Done() {
			j.cancelMu.Lock()
			j.cancelErr = err
			j.cancelMu.Unlock()
		}
		j.master.stop()
	})
}

// Err returns the job's terminal error without blocking (nil while running
// or after a clean finish; ErrCancelled after cancellation).
func (j *Job) Err() error {
	j.cancelMu.Lock()
	defer j.cancelMu.Unlock()
	return j.cancelErr
}

// ID returns the job-scoped identifier (empty in single-shot mode).
func (j *Job) ID() string { return j.cfg.jobID }

// WorkerSnapshots returns the current per-worker counters (live view for
// monitoring; implements monitor.Source).
func (j *Job) WorkerSnapshots() []metrics.Snapshot {
	out := make([]metrics.Snapshot, j.cfg.Workers)
	for i := 0; i < j.cfg.Workers; i++ {
		out[i] = j.counters[i].Snapshot()
	}
	return out
}

// Tracer returns the tracer attached via Config.Tracer (nil if none).
func (j *Job) Tracer() *trace.Tracer { return j.cfg.Tracer }

// Done reports whether the job has terminated.
func (j *Job) Done() bool {
	select {
	case <-j.master.doneCh:
		return true
	default:
		return false
	}
}
