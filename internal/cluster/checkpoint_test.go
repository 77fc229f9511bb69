package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/metrics"
	"gminer/internal/partition"
	"gminer/internal/trace"
	"gminer/internal/transport"
)

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, []byte("hello"), make([]byte, 4096)}
	for _, p := range payloads {
		b := frame(snapshotMagic, p)
		got, crc, err := unframe(snapshotMagic, b)
		if err != nil {
			t.Fatalf("payload %d bytes: %v", len(p), err)
		}
		if crc != checksum(p) {
			t.Fatalf("crc mismatch")
		}
		if len(got) != len(p) {
			t.Fatalf("payload %d bytes came back as %d", len(p), len(got))
		}
	}
}

func TestUnframeRejectsCorruption(t *testing.T) {
	good := frame(snapshotMagic, []byte("snapshot payload"))
	cases := map[string][]byte{
		"wrong magic":          frame(manifestMagic, []byte("snapshot payload")),
		"empty":                {},
		"magic only":           []byte(snapshotMagic),
		"truncated":            good[:len(good)-3],
		"trailing":             append(append([]byte(nil), good...), 0xAA),
		"flipped payload byte": flip(good, len(snapshotMagic)+3),
		"flipped crc byte":     flip(good, len(good)-1),
		"flipped magic byte":   flip(good, 0),
	}
	for name, b := range cases {
		if _, _, err := unframe(snapshotMagic, b); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

func TestManifestCodec(t *testing.T) {
	cases := []*manifest{
		{Fingerprint: 0xdeadbeef, Workers: 3, Epoch: 7,
			EpochCRCs: []uint32{1, 2, 3}, PrevEpoch: 5, PrevCRCs: []uint32{4, 5, 6}},
		{Fingerprint: 1, Workers: 1, Epoch: 1, EpochCRCs: []uint32{9},
			PrevEpoch: noEpoch, PrevCRCs: []uint32{}},
	}
	for _, m := range cases {
		got, err := decodeManifest(encodeManifest(m))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("got %+v want %+v", got, m)
		}
	}
}

func TestManifestCodecRejectsInvalid(t *testing.T) {
	bad := []*manifest{
		// CRC count does not match worker count.
		{Fingerprint: 1, Workers: 3, Epoch: 2, EpochCRCs: []uint32{1}, PrevEpoch: noEpoch},
		// Previous epoch newer than the committed one.
		{Fingerprint: 1, Workers: 1, Epoch: 2, EpochCRCs: []uint32{1}, PrevEpoch: 9, PrevCRCs: []uint32{2}},
		// Previous epoch without its checksums.
		{Fingerprint: 1, Workers: 2, Epoch: 2, EpochCRCs: []uint32{1, 2}, PrevEpoch: 1},
		// No workers at all.
		{Fingerprint: 1, Workers: 0, Epoch: 1, PrevEpoch: noEpoch},
	}
	for i, m := range bad {
		if _, err := decodeManifest(encodeManifest(m)); err == nil {
			t.Errorf("case %d: invalid manifest decoded cleanly: %+v", i, m)
		}
	}
	if _, err := decodeManifest([]byte{1, 2, 3}); err == nil {
		t.Error("garbage decoded cleanly")
	}
}

// putEpoch writes one snapshot per worker for epoch (seed cursor
// cursor+w for worker w, no tasks) and returns the checksums a commit
// needs.
func putEpoch(t *testing.T, sink *snapshotSink, epoch, cursor int64) []uint32 {
	t.Helper()
	crcs := make([]uint32, sink.workers)
	for w := range crcs {
		snap := &workerSnapshot{Epoch: epoch, SeedCursor: cursor + int64(w), TaskBytes: []byte{0}, Results: []string{}}
		crc, err := sink.put(w, epoch, encodeSnapshot(snap))
		if err != nil {
			t.Fatal(err)
		}
		crcs[w] = crc
	}
	return crcs
}

func commitEpoch(t *testing.T, sink *snapshotSink, epoch, cursor int64) {
	t.Helper()
	if err := sink.commit(epoch, putEpoch(t, sink, epoch, cursor), nil); err != nil {
		t.Fatal(err)
	}
}

// restoreJob is the part of a goroutine-host job the restore path reads:
// its sink, behind Job.refsFor and goroutineHost.holds.
func restoreJob(sink *snapshotSink) *Job {
	j := &Job{cfg: Config{Workers: sink.workers}, sink: sink}
	j.host = &goroutineHost{j: j}
	j.resumePin.Store(noEpoch)
	return j
}

// restore rebuilds worker w of j the way the engine does — the candidates
// of Job.refsFor through buildWorker — and returns the epoch it restored
// (noEpoch for a fresh start) and its seed cursor.
func restore(t *testing.T, j *Job, w int, strict bool) (int64, int64, error) {
	t.Helper()
	g := gen.RMAT(gen.RMATConfig{Scale: 5, Edges: 60, Seed: 3})
	assign, err := partition.Hash{}.Partition(g, j.cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	vt := newVertexTables(g, assign, allWorkers(j.cfg.Workers))
	net := transport.NewLocal(transport.LocalConfig{Nodes: j.cfg.Workers + 1})
	defer net.Close()
	cfg := Config{Workers: j.cfg.Workers, Threads: 1}.Defaults()
	wk, epoch, err := buildWorker(w, cfg, &ckptMark{}, vt, net.Endpoint(w), &metrics.Counters{}, j.sink, j.refsFor(w), strict)
	if err != nil {
		return noEpoch, 0, err
	}
	wk.spiller.Close()
	return epoch, wk.seedCursor.Load(), nil
}

// In-job recovery falls back per worker; a full-job resume falls back for
// the whole cut, so no two workers restore from different epochs.
func TestSinkCorruptLatestEpochFallsBack(t *testing.T) {
	sink, err := newSnapshotSink(t.TempDir(), 2, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	commitEpoch(t, sink, 1, 10)
	commitEpoch(t, sink, 2, 20)
	corruptFile(t, sink.path(sink.dir, 0, 2))
	j := restoreJob(sink)
	for w, want := range []int64{1, 2} {
		if epoch, cursor, err := restore(t, j, w, false); err != nil || epoch != want || cursor != 10*want+int64(w) {
			t.Fatalf("recovery of worker %d: epoch %d cursor %d err %v, want epoch %d", w, epoch, cursor, err, want)
		}
	}

	j.resumePin.Store(j.resumeEpoch(sink.manifestView()))
	for w := 0; w < 2; w++ {
		if epoch, cursor, err := restore(t, j, w, true); err != nil || epoch != 1 || cursor != 10+int64(w) {
			t.Fatalf("resume of worker %d: epoch %d cursor %d err %v, want the epoch-1 cut", w, epoch, cursor, err)
		}
	}

	// Both epochs corrupt: a resume fails loudly, a recovery starts fresh.
	corruptFile(t, sink.path(sink.dir, 0, 1))
	if _, _, err := restore(t, j, 0, true); err == nil {
		t.Fatal("all-corrupt resume did not error")
	}
	j.resumePin.Store(noEpoch)
	if epoch, cursor, err := restore(t, j, 0, false); err != nil || epoch != noEpoch || cursor != 0 {
		t.Fatalf("all-corrupt recovery: epoch %d cursor %d err %v, want a fresh start", epoch, cursor, err)
	}
}

// TestRestoreResolvesCommittedEpochs: restore sees only what the manifest
// vouches for, newest first, in a configured directory and in the
// temporary one a sink makes without one, which close removes.
func TestRestoreResolvesCommittedEpochs(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, dir := range []string{"", t.TempDir()} {
		sink, err := newSnapshotSink(dir, 1, 42, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		j := restoreJob(sink)
		if epoch, _, err := restore(t, j, 0, false); err != nil || epoch != noEpoch {
			t.Fatalf("dir=%q: empty sink restored epoch %d (%v)", dir, epoch, err)
		}
		crcs := putEpoch(t, sink, 1, 5)
		if epoch, _, _ := restore(t, j, 0, false); epoch != noEpoch {
			t.Fatalf("dir=%q: uncommitted epoch %d visible", dir, epoch)
		}
		if _, err := sink.load(0, 1); err == nil {
			t.Fatalf("dir=%q: load read an uncommitted epoch", dir)
		}
		if err := sink.commit(1, crcs, nil); err != nil {
			t.Fatal(err)
		}
		if epoch, cursor, err := restore(t, j, 0, true); err != nil || epoch != 1 || cursor != 5 {
			t.Fatalf("dir=%q: epoch %d cursor %d err %v", dir, epoch, cursor, err)
		}
		commitEpoch(t, sink, 2, 9)
		if epoch, _, _ := restore(t, j, 0, true); epoch != 2 {
			t.Fatalf("dir=%q: restored epoch %d, want the newer 2", dir, epoch)
		}
		if got := j.refsFor(0); len(got) != 2 || got[0].Epoch != 2 || got[1].Epoch != 1 {
			t.Fatalf("dir=%q: candidates %+v, want epochs 2 then 1", dir, got)
		}
		if made, _ := os.ReadDir(tmp); (dir == "") != (len(made) == 1) {
			t.Fatalf("dir=%q: temporary directories %v", dir, made)
		}
		sink.close()
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Fatalf("dir=%q: close left %v", dir, left)
		}
		if dir != "" {
			if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
				t.Fatalf("close removed a configured directory's manifest: %v", err)
			}
		}
	}
}

// corruptFile flips one byte in the framed payload region.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSinkStaleFileCannotImpersonateCommittedEpoch(t *testing.T) {
	dir := t.TempDir()
	sink, err := newSnapshotSink(dir, 1, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	snap := &workerSnapshot{Epoch: 1, SeedCursor: 3, TaskBytes: []byte{}, Results: []string{}}
	crc, err := sink.put(0, 1, encodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.commit(1, []uint32{crc}, nil); err != nil {
		t.Fatal(err)
	}
	// Overwrite the committed file with a DIFFERENT validly-framed snapshot
	// (an abandoned retry, say). Its frame CRC is fine, but it is not what
	// the manifest vouched for — restore must reject it.
	other := &workerSnapshot{Epoch: 1, SeedCursor: 99, TaskBytes: []byte{}, Results: []string{}}
	if err := os.WriteFile(sink.path(dir, 0, 1), frame(snapshotMagic, encodeSnapshot(other)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.load(0, 1); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("impersonating file accepted: %v", err)
	}
}

func TestSinkGCKeepsOnlyTwoCommittedEpochs(t *testing.T) {
	dir := t.TempDir()
	sink, err := newSnapshotSink(dir, 1, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := int64(1); epoch <= 3; epoch++ {
		snap := &workerSnapshot{Epoch: epoch, TaskBytes: []byte{}, Results: []string{}}
		crc, err := sink.put(0, epoch, encodeSnapshot(snap))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.commit(epoch, []uint32{crc}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(sink.path(dir, 0, 1)); !os.IsNotExist(err) {
		t.Fatalf("epoch 1 not GC'd: %v", err)
	}
	for epoch := int64(2); epoch <= 3; epoch++ {
		if _, err := os.Stat(sink.path(dir, 0, epoch)); err != nil {
			t.Fatalf("epoch %d missing: %v", epoch, err)
		}
	}
	if want := []int64{3, 2}; !reflect.DeepEqual(sink.manifestView().epochs(), want) {
		t.Fatalf("committed %v want %v", sink.manifestView().epochs(), want)
	}
}

func TestSinkFreshStartWipesStaleState(t *testing.T) {
	dir := t.TempDir()
	first, err := newSnapshotSink(dir, 1, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	snap := &workerSnapshot{Epoch: 1, TaskBytes: []byte{}, Results: []string{}}
	crc, _ := first.put(0, 1, encodeSnapshot(snap))
	if err := first.commit(1, []uint32{crc}, nil); err != nil {
		t.Fatal(err)
	}

	// A resume sink sees the manifest; a fresh sink wipes it so a stale
	// job's snapshots can never leak into in-job recovery.
	resumed, err := newSnapshotSink(dir, 1, 7, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.manifestView() == nil {
		t.Fatal("resume sink did not load the manifest")
	}
	fresh, err := newSnapshotSink(dir, 1, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.manifestView() != nil {
		t.Fatal("fresh sink kept the stale manifest")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Fatal("stale MANIFEST survived a fresh start")
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "worker-*.ckpt")); len(matches) != 0 {
		t.Fatalf("stale checkpoint files survived: %v", matches)
	}
}

func TestJobFingerprintSensitivity(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 400, Seed: 3})
	g2 := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 400, Seed: 4})
	base := Config{Workers: 3, Partitioner: partition.Hash{}}
	plan := core.PlanOf(algo.NewTriangleCount())
	fp := jobFingerprint(g, "tc", plan, base)
	if fp != jobFingerprint(g, "tc", plan, base) {
		t.Fatal("fingerprint not deterministic")
	}
	diff := map[string]uint64{
		"algorithm":    jobFingerprint(g, "mcf", plan, base),
		"zero plan":    jobFingerprint(g, "tc", core.Plan{}, base),
		"label column": jobFingerprint(g, "tc", core.PlanOf(algo.NewGraphMatch(nil)), base),
		"workers":      jobFingerprint(g, "tc", plan, Config{Workers: 4, Partitioner: partition.Hash{}}),
		"partitioner":  jobFingerprint(g, "tc", plan, Config{Workers: 3, Partitioner: partition.BDG{}}),
		"graph":        jobFingerprint(g2, "tc", plan, base),
	}
	for name, got := range diff {
		if got == fp {
			t.Errorf("changing the %s did not change the fingerprint", name)
		}
	}
}

// ckptMark seeds one task per vertex that pulls its first neighbor and
// emits one record; deterministic output = the exactly-once oracle.
type ckptMark struct {
	core.NoContext
	delay time.Duration
}

func (*ckptMark) Name() string { return "ckptmark" }

func (c *ckptMark) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	t := &core.Task{}
	t.Subgraph.AddVertex(v.ID)
	if len(v.Adj) > 0 {
		t.Cands = v.Adj[:1]
	}
	spawn(t)
}

func (c *ckptMark) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	time.Sleep(c.delay)
	env.Emit(fmt.Sprintf("v %d", t.Subgraph.Vertices()[0]))
}

func ckptWant(g *graph.Graph) []string {
	var out []string
	g.ForEach(func(v *graph.Vertex) bool {
		out = append(out, fmt.Sprintf("v %d", v.ID))
		return true
	})
	sort.Strings(out)
	return out
}

// waitForCommittedEpochs polls the job's manifest until it names at least
// n committed epochs.
func waitForCommittedEpochs(t *testing.T, j *Job, n int, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if len(j.sink.manifestView().epochs()) >= n {
			return
		}
		if j.Done() {
			t.Fatalf("job finished before %d epochs committed", n)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no manifest with %d committed epochs within %v", n, deadline)
}

// TestResumeCorruptNewestEpochFallsBack is the acceptance scenario: kill a
// job mid-run, corrupt every file of the newest committed epoch, and
// verify -resume restores the previous committed epoch and still produces
// the exact fault-free output.
func TestResumeCorruptNewestEpochFallsBack(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 83})
	want := ckptWant(g)
	dir := t.TempDir()

	// A checkpoint's quiesce first runs every ready task (and each of this
	// algorithm's rounds sleeps): a short CPQ keeps each epoch short enough
	// for two to commit inside this short job.
	cfg := Config{
		Workers: 3, Threads: 2,
		CacheCapacity: 512, StoreMemCapacity: 256, cpqHighWater: 32,
		UseLSH:           true,
		progressInterval: time.Millisecond,
		CheckpointEvery:  3 * time.Millisecond,
		CheckpointDir:    dir,
		Partitioner:      partition.Hash{},
		Stealing:         false,
	}
	job, err := Start(g, &ckptMark{delay: 150 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitForCommittedEpochs(t, job, 2, 30*time.Second)
	job.Stop() // simulated crash: the in-memory run is abandoned
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < cfg.Workers; w++ {
		corruptFile(t, filepath.Join(dir, fmt.Sprintf(ckptName, w, man.Epoch, 0)))
	}

	cfg.Resume = true
	cfg.CheckpointEvery = 0 // do not advance epochs during the assert run
	res, err := Run(g, &ckptMark{delay: 50 * time.Microsecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("resumed records differ: got %d want %d", len(res.Records), len(want))
	}
}

// TestRecoveryWithoutCheckpointDir: a job that checkpoints with no
// CheckpointDir keeps its snapshots in a temporary directory. A killed
// worker restores from it, the records match a fault-free run byte for
// byte, and Wait leaves no directory behind. The second run spills under a
// configured SpillDir, the replacement's restore included: every spiller
// has a directory of its own there, so the killed worker's spiller, closed
// around the restore, takes none of its replacement's blocks with it.
func TestRecoveryWithoutCheckpointDir(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 2500, Seed: 61})
	for _, spills := range []bool{false, true} {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		tr := trace.New(4, 0).EnableEvents()
		release := make(chan struct{})
		cfg := Config{
			Workers: 3, Threads: 2,
			CacheCapacity: 512, StoreMemCapacity: 256, cpqHighWater: 32,
			UseLSH:           true,
			progressInterval: time.Millisecond,
			CheckpointEvery:  3 * time.Millisecond,
			Partitioner:      partition.Hash{},
			Stealing:         false, // a migration in flight at kill time would be lost
			Tracer:           tr,
			seedHold:         release, // the kill lands with seeds still to come
		}
		if spills {
			cfg.StoreMemCapacity, cfg.StoreBlockCapacity, cfg.SpillDir = 4, 4, tmp
		}
		job, err := Start(g, &ckptMark{delay: 100 * time.Microsecond}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		waitForCommittedEpochs(t, job, 1, 30*time.Second)
		if made, _ := filepath.Glob(filepath.Join(tmp, "gminer-ckpt-*")); len(made) != 1 {
			t.Fatalf("checkpoints in %v, want one temporary directory", made)
		}
		job.KillWorker(1)
		if err := job.RecoverWorker(1); err != nil {
			t.Fatal(err)
		}
		close(release)
		var res *Result
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err = job.Wait()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("spills=%v: the job did not end; the replacement lost tasks", spills)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovered != 1 || tr.EventCount(trace.EvRestoreFail) != 0 {
			t.Fatalf("%d recoveries, %d failed restores: want one restore from the committed epoch",
				res.Recovered, tr.EventCount(trace.EvRestoreFail))
		}
		if spills && res.PerWorker[1].DiskWrite == 0 {
			t.Fatal("worker 1 never spilled")
		}
		if !reflect.DeepEqual(res.Records, ckptWant(g)) {
			t.Fatalf("spills=%v: recovered records differ: got %d want %d", spills, len(res.Records), len(ckptWant(g)))
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Fatalf("spills=%v: Wait left %v", spills, left)
		}
	}
}
