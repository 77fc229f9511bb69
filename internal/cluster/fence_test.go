package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gminer/internal/transport"
)

func TestFenceTableMonotonic(t *testing.T) {
	f := newFenceTable(2)
	if f.current(0) != 0 || f.current(1) != 0 {
		t.Fatal("fresh table not at generation 0")
	}
	f.raise(0, 3)
	if got := f.current(0); got != 3 {
		t.Fatalf("current(0) = %d after raise(0, 3)", got)
	}
	// A raise can never lower the fence: a late duplicate of an old
	// welcome must not re-admit a fenced-out generation.
	f.raise(0, 2)
	if got := f.current(0); got != 3 {
		t.Fatalf("raise(0, 2) lowered the fence to %d", got)
	}
	f.raise(0, 7)
	if got := f.current(0); got != 7 {
		t.Fatalf("current(0) = %d after raise(0, 7)", got)
	}
	if f.current(1) != 0 {
		t.Fatal("raising slot 0 moved slot 1")
	}
}

func TestFenceTableStale(t *testing.T) {
	f := newFenceTable(2)
	// Generation 0 (single-process, pre-fencing) is never stale.
	if f.stale(0, 0) {
		t.Fatal("generation 0 stale against a fresh table")
	}
	f.raise(0, 2)
	if !f.stale(0, 1) {
		t.Fatal("generation 1 not stale after slot 0 raised to 2")
	}
	if f.stale(0, 2) || f.stale(0, 3) {
		t.Fatal("current/future generation reported stale")
	}
	// Out-of-range slots and a nil table never fence anything: fencing is
	// an opt-in of the multi-process path, and a nil table must behave
	// exactly like the single-process sessions that never construct one.
	if f.stale(-1, 0) || f.stale(99, 0) {
		t.Fatal("out-of-range slot fenced")
	}
	var nilTable *fenceTable
	if nilTable.stale(0, 0) || nilTable.current(0) != 0 {
		t.Fatal("nil fence table fenced a worker")
	}
	nilTable.raise(0, 5) // must not panic
}

func TestDecodeCtrlBoundsFrameSize(t *testing.T) {
	var hb heartbeatMsg
	huge := make([]byte, maxCtrlPayload+1)
	err := decodeCtrl(huge, &hb)
	if err == nil {
		t.Fatal("oversized control frame accepted")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame rejected for the wrong reason: %v", err)
	}
	if err := decodeCtrl(encodeCtrl(heartbeatMsg{Gen: 4}), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Gen != 4 {
		t.Fatalf("heartbeat round trip: gen %d", hb.Gen)
	}
}

func TestParseCkptName(t *testing.T) {
	cases := []struct {
		name       string
		worker     int
		epoch, gen int64
		ok         bool
	}{
		{"worker-0.epoch-3.ckpt", 0, 0, 0, false}, // the un-stamped form of earlier builds
		{"worker-2.epoch-11.gen-4.ckpt", 2, 11, 4, true},
		{"worker-1.epoch-0.gen-0.ckpt", 1, 0, 0, true},
		{"MANIFEST", 0, 0, 0, false},
		{"JOBSPEC", 0, 0, 0, false},
		{"worker-x.epoch-3.ckpt", 0, 0, 0, false},
		{"worker-0.epoch-.ckpt", 0, 0, 0, false},
	}
	for _, tc := range cases {
		w, e, g, ok := parseCkptName(tc.name)
		if ok != tc.ok {
			t.Fatalf("parseCkptName(%q): ok=%v want %v", tc.name, ok, tc.ok)
		}
		if ok && (w != tc.worker || e != tc.epoch || g != tc.gen) {
			t.Fatalf("parseCkptName(%q) = (%d, %d, %d), want (%d, %d, %d)",
				tc.name, w, e, g, tc.worker, tc.epoch, tc.gen)
		}
	}
}

// heldEpochsIn must surface epochs from generation-stamped snapshot names,
// deduplicated, newest first — that list is what a rejoining worker's
// hello advertises.
func TestHeldEpochsIn(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"worker-0.epoch-2.gen-0.ckpt",
		"worker-0.epoch-7.ckpt", // un-stamped: not a checkpoint of this build
		"worker-0.epoch-5.gen-2.ckpt",
		"worker-0.epoch-5.gen-3.ckpt", // same epoch under two generations: one entry
		"worker-0.epoch-9.gen-3.ckpt",
		"worker-1.epoch-4.gen-0.ckpt", // another worker's file: ignored
		"MANIFEST",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := heldEpochsIn(dir, 0)
	want := []int64{9, 5, 2}
	if len(got) != len(want) {
		t.Fatalf("heldEpochsIn = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heldEpochsIn = %v, want %v", got, want)
		}
	}
	if got := heldEpochsIn(filepath.Join(dir, "missing"), 0); got != nil {
		t.Fatalf("missing dir: %v", got)
	}
}

// TestLeaseSweepIdle drives the coordinator's lease sweep on a synthetic
// clock with no job running: a slot silent past FailTimeout is marked lost
// and the session stops being ready; a heartbeat from a fenced generation
// does not re-join the slot, one from its current generation does.
func TestLeaseSweepIdle(t *testing.T) {
	const timeout = 200 * time.Millisecond
	s := &Session{cfg: Config{Workers: 2, FailTimeout: timeout}}
	c := &coordinator{s: s, fence: newFenceTable(2), fencedSeen: make([]atomic.Int64, 2), slots: make([]workerSlot, 2)}
	s.coord = c
	t0 := time.Unix(1000, 0)
	for i := range c.slots {
		c.slots[i].WorkerStatus = WorkerStatus{Joined: true, Generation: 2, LastSeen: t0}
		c.fence.raise(i, 2)
	}
	beat := func(node int, gen int64, at time.Time) {
		c.handle(transport.Message{From: node, To: 2, Type: ctrlHeartbeat, Payload: encodeCtrl(heartbeatMsg{Gen: gen})}, at)
	}
	joined := func() []bool {
		var out []bool
		for _, st := range s.WorkerHealth() {
			out = append(out, st.Joined)
		}
		return out
	}

	c.expire(t0.Add(timeout))
	if !s.Ready() {
		t.Fatalf("slots lost at exactly FailTimeout of silence: %v", joined())
	}
	beat(0, 2, t0.Add(timeout))
	late := t0.Add(timeout + time.Millisecond)
	c.expire(late)
	if got := joined(); !got[0] || got[1] || s.Ready() {
		t.Fatalf("after FailTimeout+1ms: joined %v ready %v, want slot 1 alone lost", got, s.Ready())
	}
	c.mu.Lock()
	slot := c.pickSlotLocked()
	c.mu.Unlock()
	if slot != 1 {
		t.Fatalf("auto-assigned slot %d, want the expired slot 1", slot)
	}
	beat(1, 1, late)
	if joined()[1] {
		t.Fatal("a heartbeat from fenced generation 1 re-joined slot 1")
	}
	beat(1, 2, late)
	if !joined()[1] || !s.Ready() {
		t.Fatalf("a heartbeat from the current generation left slot 1 lost: %v", joined())
	}
	c.expire(late.Add(timeout))
	if !joined()[1] {
		t.Fatal("slot 1's renewed lease expired at FailTimeout")
	}
}
