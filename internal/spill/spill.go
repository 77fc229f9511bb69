// Package spill writes and reads the task-store blocks that bound memory
// consumption (§4.3: "the task store keeps a subset of higher-priority
// tasks in memory, while the remaining tasks are kept on local disk").
//
// A Spiller hands out numbered blocks; each block is one file in the
// spiller's own TempDir, made at its first write under the configured spill
// directory (or the system's) and removed, whatever it still holds, at
// Close. No two spillers share a directory, so a killed worker's spiller
// never touches its replacement's blocks. A spilled block never stays in
// RAM: the task store has already stopped counting it. All traffic is
// charged to the metrics counters so disk I/O shows up on the Figure 5/6
// timelines.
package spill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/metrics"
	"gminer/internal/trace"
)

// TempDir is a directory made under Parent ("" for the system's temporary
// directory), named after Pattern as os.MkdirTemp does, at the first Path,
// and removed with all it holds by Close; after Close, Path fails. The
// engine's scratch files — spilled blocks, snapshots without a checkpoint
// directory — live in TempDirs, so a job that never writes any makes none.
type TempDir struct {
	Parent, Pattern string

	mu     sync.Mutex
	path   string
	closed bool
}

// Path returns the directory, making it first if it does not exist yet.
func (d *TempDir) Path() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return "", errors.New("temporary directory closed")
	}
	var err error
	if d.path == "" {
		d.path, err = os.MkdirTemp(d.Parent, d.Pattern)
	}
	return d.path, err
}

// Close removes the directory, if Path made it.
func (d *TempDir) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	_ = os.RemoveAll(d.path) // "" (never made) removes nothing
}

// Spiller allocates, writes, reads and frees blocks of encoded bytes.
type Spiller struct {
	counters *metrics.Counters
	tr       trace.Handle
	dir      TempDir
	nextID   atomic.Int64
}

// New returns a Spiller whose blocks go to a directory of its own under
// parent, or under the system's temporary directory if parent is empty.
// counters may be nil.
func New(parent string, counters *metrics.Counters) (*Spiller, error) {
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return nil, fmt.Errorf("spill: %w", err)
		}
	}
	return &Spiller{dir: TempDir{Parent: parent, Pattern: "gminer-spill-"}, counters: counters}, nil
}

// SetTrace attaches a trace handle for spill I/O spans and the spill
// latency histogram; call before the spiller is shared.
func (s *Spiller) SetTrace(h trace.Handle) { s.tr = h }

// Write stores data as a new block and returns its ID.
func (s *Spiller) Write(data []byte) (int, error) {
	id := int(s.nextID.Add(1) - 1)
	path, err := s.path(id)
	if err != nil {
		return 0, err
	}

	var start time.Time
	if s.tr.Active() {
		start = time.Now()
	}
	if s.counters != nil {
		s.counters.AddDiskWrite(int64(len(data)))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, fmt.Errorf("spill: write block %d: %w", id, err)
	}
	if !start.IsZero() {
		s.tr.ObserveSpan(trace.MetricSpillIO, trace.EvSpillWrite, time.Since(start), uint64(len(data)))
	}
	return id, nil
}

// Read loads a block's bytes.
func (s *Spiller) Read(id int) ([]byte, error) {
	var start time.Time
	if s.tr.Active() {
		start = time.Now()
	}
	path, err := s.path(id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spill: read block %d: %w", id, err)
	}
	if s.counters != nil {
		s.counters.AddDiskRead(int64(len(data)))
	}
	if !start.IsZero() {
		s.tr.ObserveSpan(trace.MetricSpillIO, trace.EvSpillLoad, time.Since(start), uint64(len(data)))
	}
	return data, nil
}

// Free releases a block after it has been consumed.
func (s *Spiller) Free(id int) {
	if path, err := s.path(id); err == nil {
		_ = os.Remove(path)
	}
}

// Close removes the spiller's directory and every block still in it; a
// later Write, Read or Free fails or does nothing.
func (s *Spiller) Close() { s.dir.Close() }

// path names block id's file, making the spiller's directory on first use.
func (s *Spiller) path(id int) (string, error) {
	dir, err := s.dir.Path()
	if err != nil {
		return "", fmt.Errorf("spill: %w", err)
	}
	return filepath.Join(dir, fmt.Sprintf("block-%d.bin", id)), nil
}
