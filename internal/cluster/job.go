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
	// Recovered counts worker recoveries during the run.
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
	// job leaves at the end of Wait; host is where its workers live.
	sess *sessionCore
	ch   uint64
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

	// resumePin, while a full-job resume is starting its workers, is the one
	// committed epoch every worker restores from (noEpoch otherwise).
	resumePin atomic.Int64

	started   time.Time
	failures  chan int
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
	s, err := newSession(g, cfg, true)
	if err != nil {
		return nil, err
	}
	j, err := s.Launch(algo, JobOptions{ID: cfg.JobID, Tracer: cfg.Tracer, RoundHook: cfg.RoundHook})
	if err != nil {
		s.Close()
	}
	return j, err
}

// refsFor lists the committed (epoch, checksum) candidates worker i may
// restore from, newest first — the MANIFEST's column for that worker, or
// only the pinned epoch while a full-job resume is starting.
func (j *Job) refsFor(i int) []resumeEpochRef {
	man := j.sink.manifestView()
	epochs := man.epochs()
	if pin := j.resumePin.Load(); pin != noEpoch {
		epochs = []int64{pin}
	}
	var refs []resumeEpochRef
	for _, epoch := range epochs {
		if crcs := man.crcsFor(epoch); i < len(crcs) {
			refs = append(refs, resumeEpochRef{Epoch: epoch, CRC: crcs[i]})
		}
	}
	return refs
}

// startWorkers brings every slot's worker up. A full-job resume pins the
// newest committed epoch every slot holds (the manifest head if the hosts
// cannot tell — the checksum decides at restore) so the whole cluster
// restores one consistent cut: task stealing moves tasks between epochs,
// so mixing epochs across workers could lose or duplicate them.
func (j *Job) startWorkers() error {
	if man := j.sink.manifestView(); j.cfg.Resume && man != nil {
		pin := man.Epoch
	pick:
		for _, epoch := range man.epochs() {
			for i := 0; i < j.cfg.Workers; i++ {
				if !j.host.holds(i, epoch) {
					continue pick
				}
			}
			pin = epoch
			break
		}
		j.resumePin.Store(pin)
		defer j.resumePin.Store(noEpoch)
	}
	// A fresh job's sink has no manifest, hence no candidates.
	for i := 0; i < j.cfg.Workers; i++ {
		if err := j.host.start(i, j.refsFor(i)); err != nil {
			return err
		}
	}
	return nil
}

// budgetAbort cancels the job when a worker's memory charge exceeded the
// job's budget; co-resident jobs in the same session are untouched.
func (j *Job) budgetAbort(err error) {
	j.cancelWith(fmt.Errorf("%w: %w", ErrCancelled, err))
}

// runCrash executes one scheduled chaos crash: kill the worker at cr.At,
// then bring it back — after cr.RecoverAfter if set, via the failure
// detector's recovery loop if one is running, or after a short fallback
// delay so an unattended run still terminates.
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
// messages to it are lost) and it stops serving pull requests until
// recovered. Co-resident jobs of the same session are untouched. A no-op on
// a finished job.
func (j *Job) KillWorker(i int) { j.host.kill(i) }

// RecoverWorker replaces a killed worker with one restored from the newest
// committed epoch. A torn or corrupt snapshot falls back to the previous
// committed epoch (traced as EvRestoreFail); with no usable committed
// checkpoint the worker restarts from scratch, which is safe because its
// un-checkpointed results died with it. A no-op on a live worker or a
// finished job.
func (j *Job) RecoverWorker(i int) error {
	if j.Done() {
		return nil
	}
	replaced, err := j.host.recover(i)
	if replaced && err == nil {
		j.recovered.Add(1)
		j.master.workerRestarted(i)
	}
	return err
}

// recoveryLoop hands workers flagged dead by the master's failure detector
// to the host for recovery.
func (j *Job) recoveryLoop() {
	for {
		select {
		case <-j.master.doneCh:
			return
		case i := <-j.failures:
			_ = j.RecoverWorker(i)
		}
	}
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
		j.sess.mux.CloseChannel(j.ch)
		results, collectErr := j.host.collect()
		j.sess.forget(j.cfg.JobID)

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
			j.sess.close(nil)
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
// plain Cancel. Safe to call from Config.RoundHook.
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
func (j *Job) ID() string { return j.cfg.JobID }

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
