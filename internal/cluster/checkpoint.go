package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/core"
	"gminer/internal/spill"
	"gminer/internal/trace"
	"gminer/internal/wire"
)

// Fault tolerance (§7): "G-Miner achieves fault tolerance by saving a
// snapshot periodically. For each checkpoint, the master instructs each
// worker to dump the state of its partition."
//
// A worker checkpoints by quiescing its pipeline: the retriever pauses and
// executors take no seed range, the task buffer flushes, in-flight tasks
// (CMQ, CPQ, active) and seed ranges drain back into the task store or die,
// and the reply to an outstanding steal REQ arrives. Then every alive task is
// inactive in the store, and the snapshot (seed cursor, store, results,
// aggregator partial, tasks done, per-peer migration counts) is the worker's
// state. Thanks to the task model "we do not need to checkpoint any message"
// — bar a migration batch on the wire, so the master commits no epoch a
// batch crosses (consistentCut).
//
// Durability is epoch-committed: each worker writes a CRC32C-framed
// worker-<i>.epoch-<N>.gen-<G>.ckpt (fsync file and directory before
// exposing it), acks the master with the payload checksum and its counts,
// and the master commits epoch N to the MANIFEST only once every worker
// acked and the counts pair up. A rollback or a resume restores every worker
// from one committed epoch (Job.pin, buildWorker).

// checkpointQuiesceTimeout bounds how long a worker waits for its pipeline
// to quiesce before skipping a checkpoint epoch, counted on its ticks.
const checkpointQuiesceTimeout = 10 * time.Second

// workerSnapshot is one worker's checkpoint. Its counters restore with its
// tasks, so a rolled-back job counts what a fault-free one does.
type workerSnapshot struct {
	Epoch      int64
	SeedCursor int64  // the first vertex of the seed scan no range has taken
	TaskBytes  []byte // the stored tasks as one core.EncodeTasks list (store.Snapshot)
	Results    []string
	AggBytes   []byte // encoded aggregator partial; nil if no aggregator
	TasksDone  int64
	Sent, Recv []int64 // tasks migrated to / from each worker
}

func encodeSnapshot(s *workerSnapshot) []byte {
	w := wire.NewWriter(1024 + len(s.TaskBytes))
	w.Varint(s.Epoch)
	w.Varint(s.SeedCursor)
	w.BytesField(s.TaskBytes)
	w.Uvarint(uint64(len(s.Results)))
	for _, r := range s.Results {
		w.String(r)
	}
	w.Bool(s.AggBytes != nil)
	if s.AggBytes != nil {
		w.BytesField(s.AggBytes)
	}
	w.Varint(s.TasksDone)
	encodeCounts(w, s.Sent)
	encodeCounts(w, s.Recv)
	return w.Bytes()
}

func decodeSnapshot(b []byte) (*workerSnapshot, error) {
	r := wire.NewReader(b)
	s := &workerSnapshot{}
	s.Epoch = r.Varint()
	s.SeedCursor = r.Varint()
	s.TaskBytes = r.BytesField()
	n := r.Count(1)
	s.Results = make([]string, 0, n)
	for i := 0; i < n; i++ {
		s.Results = append(s.Results, r.String())
	}
	if r.Bool() {
		s.AggBytes = r.BytesField()
	}
	s.TasksDone = r.Varint()
	s.Sent = decodeCounts(r)
	s.Recv = decodeCounts(r)
	return s, r.Err()
}

// snapshotSink stores per-worker, per-epoch checkpoint files plus the
// master's committed-epoch manifest in one directory: the configured one,
// or a temporary one the sink makes at its first write and removes at
// close. All methods are safe for concurrent use (workers put, the master
// commits, the recovery path loads).
type snapshotSink struct {
	workers     int
	fingerprint uint64
	// gen is the writer's fencing generation, stamped into checkpoint
	// filenames so a zombie's late put() writes to its own generation's
	// file instead of clobbering its replacement's. The goroutine host
	// stamps 0.
	gen int64
	// fence, when set (coordinator side of a multi-process job), makes
	// commit refuse acks bearing a fenced-out generation.
	fence *fenceTable

	dir string        // the configured directory; "" keeps the files in tmp
	tmp spill.TempDir // made at the first write, removed at close
	mu  sync.Mutex
	man *manifest // latest committed manifest, nil before the first commit
}

// ckptName is the one checkpoint filename form: worker, epoch, generation.
const ckptName = "worker-%d.epoch-%d.gen-%d.ckpt"

// newSnapshotSink opens the sink. gen is the writer's fencing generation
// (0 = unfenced single-process mode). An empty dir defers to a temporary
// directory made at the first write. With resume set, an existing
// MANIFEST in dir is loaded (the caller validates its fingerprint);
// without it, any stale checkpoint state in dir belongs to a previous job
// and is removed so in-job recovery can never restore another run's
// snapshot.
func newSnapshotSink(dir string, workers int, fingerprint uint64, gen int64, resume bool) (*snapshotSink, error) {
	s := &snapshotSink{dir: dir, tmp: spill.TempDir{Pattern: "gminer-ckpt-"}, workers: workers, fingerprint: fingerprint, gen: gen}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if !resume {
		s.clearDir()
		return s, nil
	}
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	man, err := decodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	s.man = man
	return s, nil
}

// clearDir removes the manifest and every checkpoint file of a previous
// job sharing the directory.
func (s *snapshotSink) clearDir() {
	for _, pattern := range []string{manifestName, "worker-*.ckpt", "worker-*.ckpt.tmp"} {
		matches, _ := filepath.Glob(filepath.Join(s.dir, pattern))
		for _, m := range matches {
			_ = os.Remove(m)
		}
	}
}

// directory returns the sink's directory, making the temporary one first if
// the sink has none yet.
func (s *snapshotSink) directory() (string, error) {
	if s.dir != "" {
		return s.dir, nil
	}
	return s.tmp.Path()
}

// close removes the sink's temporary directory, if it made one, at the
// end of the job; a configured directory stays for -resume.
func (s *snapshotSink) close() { s.tmp.Close() }

// manifestView returns the current committed manifest (nil before the
// first commit).
func (s *snapshotSink) manifestView() *manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man
}

// put persists one worker's snapshot for an epoch and returns the payload
// checksum the worker acks to the master. The write is framed, fsync'd
// and renamed into place, then the directory is fsync'd, so a crash at
// any point leaves either no file or a complete one.
func (s *snapshotSink) put(worker int, epoch int64, data []byte) (uint32, error) {
	dir, err := s.directory()
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeFileDurable(s.path(dir, worker, epoch), frame(snapshotMagic, data)); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return checksum(data), nil
}

// commit records epoch as the newest fully committed epoch: every worker's
// file for it is durable and checksummed by `crcs`. The previous committed
// epoch is retained as the restore fallback; anything older is GC'd. Run
// by the master once all msgCheckpointDone acks for the epoch arrived.
//
// gens, when non-nil, carries the fencing generation each ack arrived
// with; a commit is refused outright if any ack bears a generation the
// fence table has since moved past — a zombie must not vouch for an epoch
// after its replacement joined, even if its ack raced the admission.
func (s *snapshotSink) commit(epoch int64, crcs []uint32, gens []int64) error {
	if len(crcs) != s.workers {
		return fmt.Errorf("checkpoint: commit epoch %d with %d checksums, want %d", epoch, len(crcs), s.workers)
	}
	for w, g := range gens { // a nil fence table passes every generation
		if s.fence.stale(w, g) {
			return fmt.Errorf("checkpoint: refusing commit of epoch %d: worker %d ack bears fenced generation %d (slot is at %d)",
				epoch, w, g, s.fence.current(w))
		}
	}
	dir, err := s.directory()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &manifest{
		Fingerprint: s.fingerprint,
		Workers:     s.workers,
		Epoch:       epoch,
		EpochCRCs:   append([]uint32(nil), crcs...),
		PrevEpoch:   noEpoch,
		gens:        gens,
	}
	if s.man != nil {
		next.PrevEpoch = s.man.Epoch
		next.PrevCRCs = s.man.EpochCRCs
		next.prevGens = s.man.gens
	}
	if err := writeFileDurable(filepath.Join(dir, manifestName), encodeManifest(next)); err != nil {
		return fmt.Errorf("checkpoint: manifest: %w", err)
	}
	s.man = next
	s.gcLocked(dir)
	return nil
}

// gcLocked removes every epoch's files in dir the manifest no longer
// vouches for, keeping in-flight epochs newer than the committed one.
// Caller holds s.mu.
func (s *snapshotSink) gcLocked(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "worker-*.epoch-*.gen-*.ckpt"))
	for _, m := range matches {
		_, epoch, _, ok := parseCkptName(filepath.Base(m))
		if ok && epoch < s.man.Epoch && epoch != s.man.PrevEpoch {
			_ = os.Remove(m)
		}
	}
}

// prune removes worker's snapshot files, of any generation, of epochs below
// floor: older than every committed epoch a rollback may pick. It is a
// worker process's only collection, its sink never committing; where the
// sink commits, gcLocked has removed them already.
func (s *snapshotSink) prune(worker int, floor int64) {
	if floor == noEpoch {
		return
	}
	dir, err := s.directory()
	if err != nil {
		return
	}
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("worker-%d.epoch-*.gen-*.ckpt", worker)))
	for _, m := range matches {
		if w, epoch, _, ok := parseCkptName(filepath.Base(m)); ok && w == worker && epoch < floor {
			_ = os.Remove(m)
		}
	}
}

// parseCkptName decodes a checkpoint filename.
func parseCkptName(name string) (worker int, epoch, gen int64, ok bool) {
	n, err := fmt.Sscanf(name, ckptName, &worker, &epoch, &gen)
	return worker, epoch, gen, n == 3 && err == nil
}

// heldEpochsIn scans a checkpoint directory for one worker's snapshot
// files (any generation) and returns the distinct epochs found, newest
// first. Used by a restarting worker process to tell the coordinator what
// it can restore; the commit-time CRC is still the authority at restore,
// so listing an uncommitted or torn epoch here is harmless.
func heldEpochsIn(dir string, worker int) []int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("worker-%d.epoch-*.gen-*.ckpt", worker)))
	seen := make(map[int64]bool)
	var epochs []int64
	for _, m := range matches {
		w, epoch, _, ok := parseCkptName(filepath.Base(m))
		if !ok || w != worker || seen[epoch] {
			continue
		}
		seen[epoch] = true
		epochs = append(epochs, epoch)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	if len(epochs) > maxHeldEpochs {
		epochs = epochs[:maxHeldEpochs]
	}
	return epochs
}

// load reads one worker's snapshot for a committed epoch, verifying the
// frame checksum and that it matches what the manifest recorded at commit
// time (a leftover file from an abandoned epoch cannot impersonate a
// committed one).
func (s *snapshotSink) load(worker int, epoch int64) (*workerSnapshot, error) {
	crcs := s.manifestView().crcsFor(epoch)
	if crcs == nil {
		return nil, fmt.Errorf("checkpoint: epoch %d is not committed", epoch)
	}
	if worker < 0 || worker >= len(crcs) {
		return nil, fmt.Errorf("checkpoint: no worker %d in epoch %d", worker, epoch)
	}
	return s.loadWith(worker, epoch, crcs[worker])
}

// loadWith reads one worker's snapshot for an epoch, verifying the frame
// and the caller-supplied commit-time checksum instead of consulting a
// local manifest. The multi-process restore path: only the coordinator
// holds the MANIFEST, so a rejoining worker process is handed the
// committed (epoch, crc) pairs over the control channel and verifies its
// local file against them.
func (s *snapshotSink) loadWith(worker int, epoch int64, wantCRC uint32) (*workerSnapshot, error) {
	dir, err := s.directory()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	lastErr := fmt.Errorf("checkpoint: worker %d epoch %d missing", worker, epoch)
	// The file may have been written under any generation (a restarted
	// process restores its predecessor's snapshots), so try each; the
	// commit-time CRC decides which file is the real one.
	var payload []byte
	for _, p := range s.candidatePaths(dir, worker, epoch) {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = fmt.Errorf("checkpoint: %w", err)
			continue
		}
		pl, crc, err := unframe(snapshotMagic, b)
		if err != nil {
			lastErr = err
			continue
		}
		if crc != wantCRC {
			lastErr = fmt.Errorf("checkpoint: worker %d epoch %d checksum %08x does not match manifest %08x",
				worker, epoch, crc, wantCRC)
			continue
		}
		payload = pl
		break
	}
	if payload == nil {
		return nil, lastErr
	}
	snap, err := decodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: worker %d epoch %d: %w", worker, epoch, err)
	}
	if snap.Epoch != epoch {
		return nil, fmt.Errorf("checkpoint: worker %d file for epoch %d carries epoch %d", worker, epoch, snap.Epoch)
	}
	return snap, nil
}

func (s *snapshotSink) path(dir string, worker int, epoch int64) string {
	return filepath.Join(dir, fmt.Sprintf(ckptName, worker, epoch, s.gen))
}

// candidatePaths lists the filenames a (worker, epoch) snapshot may live
// under: this sink's own generation first, then any other generation's.
func (s *snapshotSink) candidatePaths(dir string, worker int, epoch int64) []string {
	own := s.path(dir, worker, epoch)
	paths := []string{own}
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("worker-%d.epoch-%d.gen-*.ckpt", worker, epoch)))
	for _, m := range matches {
		if m != own {
			paths = append(paths, m)
		}
	}
	return paths
}

// writeFileDurable writes data to path with the tmp + fsync + rename +
// dir-fsync dance, so the named file is either absent or complete and
// survives power loss once the call returns.
func writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// platforms cannot fsync directories; strings.Contains filters the
// expected failure modes there rather than failing the checkpoint.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!strings.Contains(err.Error(), "invalid argument") &&
		!strings.Contains(err.Error(), "not supported") {
		return err
	}
	return nil
}

// requestCheckpoint hands epoch to the worker's one checkpointer, started at
// the first request. A newer request supersedes one still quiescing: that
// one is nacked and the pipeline stays paused for the newer, so however
// often the master abandons an epoch and starts the next, one goroutine
// checkpoints and no cut is taken while another has unpaused the pipeline.
// Comm loop only.
func (w *Worker) requestCheckpoint(epoch int64) {
	if epoch <= w.ckptEpoch.Load() {
		return // a duplicated or reordered request
	}
	w.ckptEpoch.Store(epoch)
	if w.ckptKick == nil {
		w.ckptKick = make(chan struct{}, 1)
		// Tracked in wg so job teardown can prove the checkpointer does not
		// outlive the job (leak-checked reruns).
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.checkpointLoop()
		}()
	}
	select {
	case w.ckptKick <- struct{}{}:
	default:
	}
	w.wake() // a quiescing checkpoint sees it is superseded
}

// checkpointLoop is the worker's checkpointer: kicked, it checkpoints the
// newest requested epoch it has not acked yet.
func (w *Worker) checkpointLoop() {
	var acked int64
	for {
		select {
		case <-w.stopCh:
			return
		case <-w.ckptKick:
		}
		if w.ckptEpoch.Load() > acked {
			acked = w.checkpoint()
		}
	}
}

// checkpoint quiesces the pipeline and persists a snapshot of the newest
// requested epoch, then acks the master with the payload checksum; it
// returns the epoch it acked last. It runs on the checkpointer, not the comm
// loop, which keeps serving pull requests during the global checkpoint.
// Failure to snapshot or persist is acked negatively so the master abandons
// the epoch immediately instead of waiting out a timeout.
func (w *Worker) checkpoint() int64 {
	// One deadline, read before the pause, bounds it across superseding epochs.
	epoch := w.ckptEpoch.Load()
	deadline := w.clock.Load() + int64(checkpointQuiesceTimeout)
	w.paused.Store(true)
	defer func() {
		w.paused.Store(false)
		w.wake()
		w.cpq.kick() // an executor waiting on the CPQ may take a seed range now
	}()
	var ckptStart time.Time
	for {
		if w.trCkpt.Active() {
			ckptStart = time.Now()
			w.trCkpt.Event(trace.EvCheckpointBegin, uint64(epoch))
		}
		ok := w.quiesce(epoch, deadline)
		if w.stopped() {
			return epoch
		}
		next := w.ckptEpoch.Load()
		if next == epoch && ok {
			w.cutMu.Lock() // held until the cut is taken
			if w.quiet() {
				break
			}
			w.cutMu.Unlock() // a migration batch landed after the quiesce
			continue
		}
		// Superseded (the master moved on, so this epoch can never commit)
		// or unable to quiesce (pathological pull starvation; skipping beats
		// stalling the job). The negative ack lets the master abandon the
		// epoch right away.
		w.trCkpt.Event(trace.EvCheckpointSkip, uint64(epoch))
		w.ackCheckpoint(ckptAck{Epoch: epoch})
		if next == epoch {
			return epoch
		}
		epoch = next
	}

	snap, err := w.cut(epoch)
	w.cutMu.Unlock()
	if err != nil {
		w.checkpointFailed(epoch, err)
		return epoch
	}
	ack := ckptAck{Epoch: epoch, OK: true, Sent: snap.Sent, Recv: snap.Recv}
	if w.snapshots != nil {
		// Older files go first, so the directory never holds more than the
		// two committed epochs beside this one.
		w.snapshots.prune(w.id, w.ckptFloor.Load())
		ack.CRC, err = w.snapshots.put(w.id, epoch, encodeSnapshot(snap))
		if err != nil {
			w.checkpointFailed(epoch, err)
			return epoch
		}
	}
	if !ckptStart.IsZero() {
		w.trCkpt.ObserveSpan(trace.MetricCheckpoint, trace.EvCheckpointEnd, time.Since(ckptStart), uint64(epoch))
	}
	w.ackCheckpoint(ack)
	return epoch
}

// cut takes the snapshot of a quiet pipeline. Caller holds cutMu.
func (w *Worker) cut(epoch int64) (*workerSnapshot, error) {
	taskBytes, err := w.store.Snapshot()
	if err != nil {
		return nil, err
	}
	snap := &workerSnapshot{
		Epoch:      epoch,
		SeedCursor: w.seedCursor.Load(),
		TaskBytes:  taskBytes,
		Results:    w.takeResults(),
		TasksDone:  w.counters.Snapshot().TasksDone,
		Sent:       loadCounts(w.sentTo),
		Recv:       loadCounts(w.recvFrom),
	}
	if w.agg != nil {
		wr := wire.NewWriter(32)
		w.aggMu.Lock()
		w.agg.Encode(wr, w.partialAgg())
		w.aggMu.Unlock()
		snap.AggBytes = wr.Bytes()
	}
	return snap, nil
}

// loadCounts reads a per-peer count vector.
func loadCounts(counts []atomic.Int64) []int64 {
	out := make([]int64, len(counts))
	for i := range counts {
		out[i] = counts[i].Load()
	}
	return out
}

// quiesce waits until the pipeline is quiet and reports whether it got
// there. Each task that parks or dies and each seed range that retires
// while the gate is closed wakes this wait (bufferTask, retire), as do a
// steal reply, stop, a newer request, which ends it, and every tick: one that
// reaches deadline fails it.
func (w *Worker) quiesce(epoch, deadline int64) bool {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	for {
		w.flushBatch(w.buffer.drain())
		if ok := w.quiet(); ok || w.stopped() || w.clock.Load() >= deadline || w.ckptEpoch.Load() != epoch {
			return ok
		}
		w.pendCond.Wait()
	}
}

// quiet: every alive task is inactive in the store, no steal reply due.
func (w *Worker) quiet() bool {
	return int64(w.store.Size()) == w.inflight.Load() && w.buffer.len() == 0 && !w.stealPending()
}

// checkpointFailed surfaces a snapshot/persist failure: trace event,
// metrics counter, last-error on the worker (collected into
// cluster.Result) and a negative ack to the master.
func (w *Worker) checkpointFailed(epoch int64, err error) {
	w.trCkpt.Event(trace.EvCheckpointFail, uint64(epoch))
	w.counters.CheckpointFailed()
	w.ckptMu.Lock()
	w.ckptErr = fmt.Errorf("worker %d epoch %d: %w", w.id, epoch, err)
	w.ckptMu.Unlock()
	w.ackCheckpoint(ckptAck{Epoch: epoch})
}

// ackCheckpoint reports the epoch's outcome to the master, stamped with
// the writer's fencing generation. A killed worker stays silent, like a
// crashed machine.
func (w *Worker) ackCheckpoint(ack ckptAck) {
	if w.killed.Load() {
		return
	}
	if w.snapshots != nil {
		ack.Gen = w.snapshots.gen
	}
	_ = w.ep.Send(w.masterNode, msgCheckpointDone, encodeCkptAck(ack))
}

// lastCheckpointErr returns the most recent checkpoint failure, nil if all
// checkpoints persisted.
func (w *Worker) lastCheckpointErr() error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	return w.ckptErr
}

// applySnapshot restores worker state from a checkpoint before the
// pipeline starts. The task payload is decoded up front so a corrupt
// snapshot mutates nothing: the caller fails the restore instead of
// silently dropping tasks mid-restore.
func (w *Worker) applySnapshot(s *workerSnapshot) error {
	tasks, err := core.DecodeTasks(s.TaskBytes, w.algo)
	if err != nil {
		return fmt.Errorf("cluster: restore worker %d epoch %d: %w", w.id, s.Epoch, err)
	}
	w.seedCursor.Store(s.SeedCursor)
	w.results = append(w.results, s.Results...)
	if w.agg != nil && s.AggBytes != nil {
		w.setPartialAgg(w.agg.Decode(wire.NewReader(s.AggBytes)))
	}
	w.counters.SetTasksDone(s.TasksDone)
	for peer := range w.sentTo {
		w.sentTo[peer].Store(peerCount(s.Sent, peer))
		w.recvFrom[peer].Store(peerCount(s.Recv, peer))
		w.tasksSent.Add(peerCount(s.Sent, peer))
		w.tasksRecv.Add(peerCount(s.Recv, peer))
	}
	for _, t := range tasks {
		w.intake(t, false)
	}
	w.flushBatch(w.buffer.drain())
	return nil
}
