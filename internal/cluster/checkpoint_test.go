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
	"gminer/internal/partition"
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

func TestSinkCorruptLatestEpochFallsBack(t *testing.T) {
	dir := t.TempDir()
	sink, err := newSnapshotSink(dir, 2, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	commitEpoch := func(epoch int64, cursor int64) {
		crcs := make([]uint32, 2)
		for w := 0; w < 2; w++ {
			snap := &workerSnapshot{Epoch: epoch, SeedCursor: cursor, TaskBytes: []byte{}, Results: []string{}}
			crc, err := sink.put(w, epoch, encodeSnapshot(snap))
			if err != nil {
				t.Fatal(err)
			}
			crcs[w] = crc
		}
		if err := sink.commit(epoch, crcs, nil); err != nil {
			t.Fatal(err)
		}
	}
	commitEpoch(1, 10)
	commitEpoch(2, 20)

	// Corrupt worker 0's newest file: restore must fall back to epoch 1,
	// and a full-cut load must fall back for BOTH workers (same epoch).
	corruptFile(t, sink.path(0, 2))
	if snap, err := sink.get(0); err != nil || snap == nil || snap.Epoch != 1 {
		t.Fatalf("worker 0: got %+v err %v, want epoch 1", snap, err)
	}
	if snap, err := sink.get(1); err != nil || snap == nil || snap.Epoch != 2 {
		t.Fatalf("worker 1 single-restore: got %+v err %v, want epoch 2", snap, err)
	}
	epoch, snaps, err := sink.loadAll()
	if err != nil || epoch != 1 {
		t.Fatalf("loadAll: epoch %d err %v, want epoch 1", epoch, err)
	}
	for w, s := range snaps {
		if s.Epoch != 1 || s.SeedCursor != 10 {
			t.Fatalf("worker %d restored %+v from mixed epochs", w, s)
		}
	}

	// Both epochs corrupt: loud error, not garbage.
	corruptFile(t, sink.path(0, 1))
	if _, err := sink.get(0); err == nil {
		t.Fatal("all-corrupt restore did not error")
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
	if err := os.WriteFile(sink.path(0, 1), frame(snapshotMagic, encodeSnapshot(other)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.get(0); err == nil || !strings.Contains(err.Error(), "manifest") {
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
	if _, err := os.Stat(sink.path(0, 1)); !os.IsNotExist(err) {
		t.Fatalf("epoch 1 not GC'd: %v", err)
	}
	for epoch := int64(2); epoch <= 3; epoch++ {
		if _, err := os.Stat(sink.path(0, epoch)); err != nil {
			t.Fatalf("epoch %d missing: %v", epoch, err)
		}
	}
	if want := []int64{3, 2}; !reflect.DeepEqual(sink.committedEpochs(), want) {
		t.Fatalf("committed %v want %v", sink.committedEpochs(), want)
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
		"generic plan": jobFingerprint(g, "tc", core.Plan{}, base),
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

// waitForCommittedEpochs polls the on-disk MANIFEST until it names at
// least n committed epochs (rename is atomic, so every read decodes).
func waitForCommittedEpochs(t *testing.T, dir string, n int, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if b, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
			if man, err := decodeManifest(b); err == nil && len(man.epochs()) >= n {
				return
			}
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
	waitForCommittedEpochs(t, dir, 2, 30*time.Second)
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
		corruptFile(t, filepath.Join(dir, fmt.Sprintf("worker-%d.epoch-%d.ckpt", w, man.Epoch)))
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
