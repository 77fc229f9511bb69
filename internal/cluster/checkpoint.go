package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gminer/internal/store"
	"gminer/internal/trace"
	"gminer/internal/wire"
)

// Fault tolerance (§7): "G-Miner achieves fault tolerance by saving a
// snapshot periodically. For each checkpoint, the master instructs each
// worker to dump the state of its partition."
//
// A worker checkpoints by quiescing its pipeline: the retriever and seeder
// pause, the task buffer flushes, and in-flight tasks (CMQ, CPQ, active)
// drain back into the task store or die. At that point every alive task is
// inactive in the store, so the snapshot = seed cursor + store contents +
// emitted results + aggregator partial is a consistent cut. Thanks to the
// task model "we do not need to checkpoint any message".
//
// Durability is epoch-committed: each worker writes a CRC32C-framed
// worker-<i>.epoch-<N>.ckpt (fsync file and directory before exposing it),
// acks the master with the payload checksum, and the master commits epoch
// N to the MANIFEST only once every worker acked. Restore resolves epochs
// through the manifest — newest committed first, previous committed as the
// fallback when a file is torn or corrupt — so recovery never feeds
// garbage to decodeSnapshot and never mixes epochs across workers on a
// full-job resume.

// checkpointQuiesceTimeout bounds how long a worker waits for its pipeline
// to quiesce before skipping a checkpoint epoch.
const checkpointQuiesceTimeout = 10 * time.Second

// workerSnapshot is one worker's checkpoint.
type workerSnapshot struct {
	Epoch      int64
	SeedCursor int64
	SeedsDone  bool
	TaskBytes  []byte // store.Snapshot payload
	Results    []string
	AggBytes   []byte // encoded aggregator partial; nil if no aggregator
}

func encodeSnapshot(s *workerSnapshot) []byte {
	w := wire.NewWriter(1024 + len(s.TaskBytes))
	w.Varint(s.Epoch)
	w.Varint(s.SeedCursor)
	w.Bool(s.SeedsDone)
	w.BytesField(s.TaskBytes)
	w.Uvarint(uint64(len(s.Results)))
	for _, r := range s.Results {
		w.String(r)
	}
	w.Bool(s.AggBytes != nil)
	if s.AggBytes != nil {
		w.BytesField(s.AggBytes)
	}
	return w.Bytes()
}

func decodeSnapshot(b []byte) (*workerSnapshot, error) {
	r := wire.NewReader(b)
	s := &workerSnapshot{}
	s.Epoch = r.Varint()
	s.SeedCursor = r.Varint()
	s.SeedsDone = r.Bool()
	s.TaskBytes = r.BytesField()
	n := r.Count(1)
	s.Results = make([]string, 0, n)
	for i := 0; i < n; i++ {
		s.Results = append(s.Results, r.String())
	}
	if r.Bool() {
		s.AggBytes = r.BytesField()
	}
	return s, r.Err()
}

// snapshotSink stores per-worker, per-epoch checkpoints plus the master's
// committed-epoch manifest: on disk when a checkpoint directory is
// configured, in memory otherwise. All methods are safe for concurrent use
// (workers put, the master commits, the recovery path loads).
type snapshotSink struct {
	dir         string
	workers     int
	fingerprint uint64
	// gen is the writer's fencing generation, stamped into checkpoint
	// filenames when non-zero so a zombie's late put() writes to its own
	// generation's file instead of clobbering its replacement's.
	gen int64
	// fence, when set (coordinator side of a multi-process job), makes
	// commit refuse acks bearing a fenced-out generation.
	fence *fenceTable

	mu  sync.Mutex
	mem map[int64]map[int][]byte // epoch → worker → raw snapshot payload
	man *manifest                // latest committed manifest, nil before the first commit
}

// newSnapshotSink opens the sink. gen is the writer's fencing generation
// (0 = unfenced single-process mode). With resume set, an existing
// MANIFEST in dir is loaded (the caller validates its fingerprint);
// without it, any stale checkpoint state in dir belongs to a previous job
// and is removed so in-job recovery can never restore another run's
// snapshot.
func newSnapshotSink(dir string, workers int, fingerprint uint64, gen int64, resume bool) (*snapshotSink, error) {
	s := &snapshotSink{dir: dir, workers: workers, fingerprint: fingerprint, gen: gen}
	if dir == "" {
		s.mem = make(map[int64]map[int][]byte)
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
	_ = os.Remove(filepath.Join(s.dir, manifestName))
	matches, _ := filepath.Glob(filepath.Join(s.dir, "worker-*.ckpt"))
	for _, m := range matches {
		_ = os.Remove(m)
	}
	matches, _ = filepath.Glob(filepath.Join(s.dir, "worker-*.ckpt.tmp"))
	for _, m := range matches {
		_ = os.Remove(m)
	}
}

// manifestView returns the current committed manifest (nil before the
// first commit).
func (s *snapshotSink) manifestView() *manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man
}

// committedEpochs returns the restorable epochs newest-first.
func (s *snapshotSink) committedEpochs() []int64 {
	return s.manifestView().epochs()
}

// put persists one worker's snapshot for an epoch and returns the payload
// checksum the worker acks to the master. On disk the write is framed,
// fsync'd and renamed into place, then the directory is fsync'd, so a
// crash at any point leaves either no file or a complete one.
func (s *snapshotSink) put(worker int, epoch int64, data []byte) (uint32, error) {
	crc := checksum(data)
	if s.mem != nil {
		s.mu.Lock()
		byWorker := s.mem[epoch]
		if byWorker == nil {
			byWorker = make(map[int][]byte)
			s.mem[epoch] = byWorker
		}
		byWorker[worker] = append([]byte(nil), data...)
		s.mu.Unlock()
		return crc, nil
	}
	path := s.path(worker, epoch)
	if err := writeFileDurable(path, frame(snapshotMagic, data)); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return crc, nil
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
	if s.fence != nil && gens != nil {
		for w, g := range gens {
			if s.fence.stale(w, g) {
				return fmt.Errorf("checkpoint: refusing commit of epoch %d: worker %d ack bears fenced generation %d (slot is at %d)",
					epoch, w, g, s.fence.current(w))
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &manifest{
		Fingerprint: s.fingerprint,
		Workers:     s.workers,
		Epoch:       epoch,
		EpochCRCs:   append([]uint32(nil), crcs...),
		PrevEpoch:   noEpoch,
	}
	if s.man != nil {
		next.PrevEpoch = s.man.Epoch
		next.PrevCRCs = s.man.EpochCRCs
	}
	if s.mem == nil {
		if err := writeFileDurable(filepath.Join(s.dir, manifestName), encodeManifest(next)); err != nil {
			return fmt.Errorf("checkpoint: manifest: %w", err)
		}
	}
	s.man = next
	s.gcLocked()
	return nil
}

// gcLocked drops every epoch the manifest no longer vouches for, keeping
// in-flight epochs newer than the committed one. Caller holds s.mu.
func (s *snapshotSink) gcLocked() {
	keep := func(epoch int64) bool {
		return epoch >= s.man.Epoch || epoch == s.man.PrevEpoch
	}
	if s.mem != nil {
		for epoch := range s.mem {
			if !keep(epoch) {
				delete(s.mem, epoch)
			}
		}
		return
	}
	matches, _ := filepath.Glob(filepath.Join(s.dir, "worker-*.epoch-*.ckpt"))
	for _, m := range matches {
		_, epoch, _, ok := parseCkptName(filepath.Base(m))
		if ok && !keep(epoch) {
			_ = os.Remove(m)
		}
	}
}

// parseCkptName decodes both checkpoint filename forms: the legacy
// worker-<w>.epoch-<e>.ckpt and the generation-stamped
// worker-<w>.epoch-<e>.gen-<g>.ckpt (gen 0 is reported for legacy names).
func parseCkptName(name string) (worker int, epoch, gen int64, ok bool) {
	if n, _ := fmt.Sscanf(name, "worker-%d.epoch-%d.gen-%d.ckpt", &worker, &epoch, &gen); n == 3 {
		return worker, epoch, gen, true
	}
	if n, err := fmt.Sscanf(name, "worker-%d.epoch-%d.ckpt", &worker, &epoch); n == 2 && err == nil {
		return worker, epoch, 0, true
	}
	return 0, 0, 0, false
}

// heldEpochsIn scans a checkpoint directory for one worker's snapshot
// files (any generation) and returns the distinct epochs found, newest
// first. Used by a restarting worker process to tell the coordinator what
// it can restore; the commit-time CRC is still the authority at restore,
// so listing an uncommitted or torn epoch here is harmless.
func heldEpochsIn(dir string, worker int) []int64 {
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("worker-%d.epoch-*.ckpt", worker)))
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
	var payload []byte
	var crc uint32
	if s.mem != nil {
		s.mu.Lock()
		data := s.mem[epoch][worker]
		s.mu.Unlock()
		if data == nil {
			return nil, fmt.Errorf("checkpoint: worker %d epoch %d missing", worker, epoch)
		}
		payload, crc = data, checksum(data)
	} else {
		// The file may have been written under any generation (a restarted
		// process restores its predecessor's snapshots), so try every name
		// form; the commit-time CRC decides which file is the real one.
		var lastErr error
		for _, p := range s.candidatePaths(worker, epoch) {
			b, err := os.ReadFile(p)
			if err != nil {
				lastErr = fmt.Errorf("checkpoint: %w", err)
				continue
			}
			pl, c, err := unframe(snapshotMagic, b)
			if err != nil {
				lastErr = err
				continue
			}
			if c != wantCRC {
				lastErr = fmt.Errorf("checkpoint: worker %d epoch %d checksum %08x does not match manifest %08x",
					worker, epoch, c, wantCRC)
				continue
			}
			payload, crc = pl, c
			break
		}
		if payload == nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("checkpoint: worker %d epoch %d missing", worker, epoch)
			}
			return nil, lastErr
		}
	}
	if crc != wantCRC {
		return nil, fmt.Errorf("checkpoint: worker %d epoch %d checksum %08x does not match manifest %08x",
			worker, epoch, crc, wantCRC)
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

// get resolves one worker's snapshot from the newest committed epoch,
// falling back to the previous committed epoch on a torn or corrupt file.
// (nil, nil) means no committed checkpoint exists: restart from scratch.
func (s *snapshotSink) get(worker int) (*workerSnapshot, error) {
	var firstErr error
	for _, epoch := range s.committedEpochs() {
		snap, err := s.load(worker, epoch)
		if err == nil {
			return snap, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, nil
}

// loadAll resolves one consistent cut: the newest committed epoch whose
// every worker snapshot verifies. A single bad file fails the whole epoch
// over to the previous committed one, so a full-job resume never mixes
// epochs across workers.
func (s *snapshotSink) loadAll() (int64, []*workerSnapshot, error) {
	var lastErr error
	for _, epoch := range s.committedEpochs() {
		snaps := make([]*workerSnapshot, s.workers)
		ok := true
		for w := 0; w < s.workers; w++ {
			snap, err := s.load(w, epoch)
			if err != nil {
				lastErr = err
				ok = false
				break
			}
			snaps[w] = snap
		}
		if ok {
			return epoch, snaps, nil
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("checkpoint: no committed epoch")
	}
	return 0, nil, lastErr
}

func (s *snapshotSink) path(worker int, epoch int64) string {
	if s.gen > 0 {
		return filepath.Join(s.dir, fmt.Sprintf("worker-%d.epoch-%d.gen-%d.ckpt", worker, epoch, s.gen))
	}
	return filepath.Join(s.dir, fmt.Sprintf("worker-%d.epoch-%d.ckpt", worker, epoch))
}

// candidatePaths lists the filenames a (worker, epoch) snapshot may live
// under, this sink's own generation first, then the legacy un-stamped
// name, then any other generation's file.
func (s *snapshotSink) candidatePaths(worker int, epoch int64) []string {
	own := s.path(worker, epoch)
	paths := []string{own}
	if legacy := filepath.Join(s.dir, fmt.Sprintf("worker-%d.epoch-%d.ckpt", worker, epoch)); legacy != own {
		paths = append(paths, legacy)
	}
	matches, _ := filepath.Glob(filepath.Join(s.dir, fmt.Sprintf("worker-%d.epoch-%d.gen-*.ckpt", worker, epoch)))
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

// checkpoint quiesces the pipeline and persists a snapshot, then acks the
// master with the payload checksum. Runs on its own goroutine (must not
// block the comm loop, which keeps serving pull requests during the global
// checkpoint). Failure to snapshot or persist is acked negatively so the
// master abandons the epoch immediately instead of waiting out a timeout.
func (w *Worker) checkpoint(epoch int64) {
	w.paused.Store(true)
	defer func() {
		w.paused.Store(false)
		w.wake()
	}()
	var ckptStart time.Time
	if w.trCkpt.Active() {
		ckptStart = time.Now()
		w.trCkpt.Event(trace.EvCheckpointBegin, uint64(epoch))
	}

	// Quiesce: wait until every alive task is inactive in the store. Each
	// task that parks or dies while the gate is closed wakes this wait
	// (bufferTask, taskDead), as do stop and the deadline.
	deadline := time.Now().Add(checkpointQuiesceTimeout)
	timer := time.AfterFunc(checkpointQuiesceTimeout, w.wake)
	defer timer.Stop()
	quiesced := func() bool {
		w.flushBatch(w.buffer.drain())
		return int64(w.store.Size()) == w.inflight.Load() && w.buffer.len() == 0
	}
	w.pendMu.Lock()
	ok := quiesced()
	for !ok && !w.stopped() && time.Now().Before(deadline) {
		w.pendCond.Wait()
		ok = quiesced()
	}
	w.pendMu.Unlock()
	if w.stopped() {
		return
	}
	if !ok {
		// Could not quiesce (pathological pull starvation); skip this
		// checkpoint rather than stall the job. The negative ack lets the
		// master abandon the epoch right away.
		w.trCkpt.Event(trace.EvCheckpointSkip, uint64(epoch))
		w.ackCheckpoint(epoch, 0, false)
		return
	}

	taskBytes, err := w.store.Snapshot()
	if err != nil {
		w.checkpointFailed(epoch, err)
		return
	}
	snap := &workerSnapshot{
		Epoch:      epoch,
		SeedCursor: w.seedCursor.Load(),
		SeedsDone:  w.seedsDone.Load(),
		TaskBytes:  taskBytes,
		Results:    w.takeResults(),
	}
	if w.agg != nil {
		wr := wire.NewWriter(32)
		w.aggMu.Lock()
		w.agg.Encode(wr, w.aggPartial)
		w.aggMu.Unlock()
		snap.AggBytes = wr.Bytes()
	}
	var crc uint32
	if w.snapshots != nil {
		crc, err = w.snapshots.put(w.id, epoch, encodeSnapshot(snap))
		if err != nil {
			w.checkpointFailed(epoch, err)
			return
		}
	}
	w.trCkpt.ObserveSpan(trace.MetricCheckpoint, trace.EvCheckpointEnd, ckptStart, uint64(epoch))
	w.ackCheckpoint(epoch, crc, true)
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
	w.ackCheckpoint(epoch, 0, false)
}

// ackCheckpoint reports the epoch's outcome to the master, stamped with
// the writer's fencing generation. A killed worker stays silent, like a
// crashed machine.
func (w *Worker) ackCheckpoint(epoch int64, crc uint32, ok bool) {
	if w.killed.Load() {
		return
	}
	var gen int64
	if w.snapshots != nil {
		gen = w.snapshots.gen
	}
	_ = w.ep.Send(w.masterNode, msgCheckpointDone, encodeCkptAck(epoch, crc, ok, gen))
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
// snapshot mutates nothing: the caller falls back to an older epoch (or
// scratch) instead of silently dropping tasks mid-restore.
func (w *Worker) applySnapshot(s *workerSnapshot) error {
	tasks, err := store.DecodeSnapshot(s.TaskBytes, w.algo)
	if err != nil {
		return fmt.Errorf("cluster: restore worker %d epoch %d: %w", w.id, s.Epoch, err)
	}
	w.seedCursor.Store(s.SeedCursor)
	w.seedsDone.Store(s.SeedsDone)
	w.results = append(w.results, s.Results...)
	if w.agg != nil && s.AggBytes != nil {
		w.aggPartial = w.agg.Decode(wire.NewReader(s.AggBytes))
	}
	for _, t := range tasks {
		w.intake(t, false)
	}
	w.flushBatch(w.buffer.drain())
	return nil
}
