package spill

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gminer/internal/metrics"
)

// With no directory a spiller keeps its blocks in a temporary directory of
// its own, made at the first write and gone after Close.
func TestTempDirRoundTrip(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	s, err := New("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Fatalf("New made %d entries before any write", len(entries))
	}
	id, err := s.Write([]byte("block data"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
	if err != nil || string(got) != "block data" {
		t.Fatalf("got %q err %v", got, err)
	}
	s.Free(id)
	if _, err := s.Read(id); err == nil {
		t.Fatal("read after free should fail")
	}
	if _, err := s.Write([]byte("left behind")); err != nil {
		t.Fatal(err)
	}
	if blocks, _ := filepath.Glob(filepath.Join(tmp, "*", "block-*.bin")); len(blocks) != 1 {
		t.Fatalf("%d block files under TMPDIR, want 1", len(blocks))
	}
	s.Close()
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Fatalf("Close left %d entries in TMPDIR", len(entries))
	}
	if _, err := s.Write([]byte("late")); err == nil {
		t.Fatal("a write after Close made a new directory")
	}
}

func TestFileModeRoundTrip(t *testing.T) {
	s, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 4096)
	id, err := s.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("file round trip broken: %v", err)
	}
	s.Free(id)
	if _, err := s.Read(id); err == nil {
		t.Fatal("read after free should fail")
	}
}

// Spillers under one configured directory each write to a directory of their
// own: closing one, as a killed worker's is, leaves another's blocks alone,
// and closing both leaves the configured directory empty.
func TestSpillersShareNoBlocks(t *testing.T) {
	parent := t.TempDir()
	a, _ := New(parent, nil)
	b, _ := New(parent, nil)
	if _, err := a.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	id, err := b.Write([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if got, err := b.Read(id); err != nil || string(got) != "b" {
		t.Fatalf("after the other spiller closed: got %q err %v", got, err)
	}
	b.Close()
	if entries, _ := os.ReadDir(parent); len(entries) != 0 {
		t.Fatalf("Close left %d entries in the spill directory", len(entries))
	}
}

func TestDistinctIDs(t *testing.T) {
	s, _ := New("", nil)
	defer s.Close()
	a, _ := s.Write([]byte("a"))
	b, _ := s.Write([]byte("b"))
	if a == b {
		t.Fatal("ids collide")
	}
	ga, _ := s.Read(a)
	gb, _ := s.Read(b)
	if string(ga) != "a" || string(gb) != "b" {
		t.Fatal("contents crossed")
	}
}

func TestWriteDoesNotAliasCaller(t *testing.T) {
	s, _ := New("", nil)
	defer s.Close()
	buf := []byte("mutable")
	id, _ := s.Write(buf)
	buf[0] = 'X'
	got, _ := s.Read(id)
	if string(got) != "mutable" {
		t.Fatal("spiller aliased caller buffer")
	}
}

func TestAccounting(t *testing.T) {
	c := &metrics.Counters{}
	s, _ := New("", c)
	defer s.Close()
	id, _ := s.Write(make([]byte, 100))
	_, _ = s.Read(id)
	snap := c.Snapshot()
	if snap.DiskWrite != 100 || snap.DiskRead != 100 {
		t.Fatalf("accounting: %+v", snap)
	}
}

func TestClose(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir, nil)
	id, _ := s.Write([]byte("x"))
	s.Close()
	if _, err := s.Read(id); err == nil {
		t.Fatal("read after close should fail")
	}
}
