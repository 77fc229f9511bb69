package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCountersBasics(t *testing.T) {
	c := &Counters{}
	c.AddBusy(time.Second)
	c.AddNet(100)
	c.AddNet(50)
	c.AddDiskRead(10)
	c.AddDiskWrite(20)
	c.TaskDone()
	c.EmitResult()
	c.CacheHit()
	c.CacheHit()
	c.CacheMiss()
	c.TasksStolen(1)
	s := c.Snapshot()
	if s.Busy != time.Second || s.NetBytes != 150 || s.NetMsgs != 2 ||
		s.DiskRead != 10 || s.DiskWrite != 20 || s.TasksDone != 1 ||
		s.Results != 1 || s.CacheHits != 2 || s.CacheMisses != 1 || s.Stolen != 1 {
		t.Fatalf("snapshot wrong: %+v", s)
	}
	if s.CacheHitRate() < 0.66 || s.CacheHitRate() > 0.67 {
		t.Fatalf("hit rate %f", s.CacheHitRate())
	}
}

func TestLivePeak(t *testing.T) {
	c := &Counters{}
	c.AddLive(100)
	c.AddLive(50)
	c.AddLive(-120)
	s := c.Snapshot()
	if s.LiveBytes != 30 || s.PeakBytes != 150 {
		t.Fatalf("live=%d peak=%d", s.LiveBytes, s.PeakBytes)
	}
	c.ObserveLive(500)
	c.ObserveLive(10)
	s = c.Snapshot()
	if s.LiveBytes != 10 || s.PeakBytes != 500 {
		t.Fatalf("observe: live=%d peak=%d", s.LiveBytes, s.PeakBytes)
	}
}

func TestCPUUtil(t *testing.T) {
	var s Snapshot
	s.Busy = 2 * time.Second
	if u := s.CPUUtil(time.Second, 4); u != 0.5 {
		t.Fatalf("util=%f", u)
	}
	if u := s.CPUUtil(time.Second, 1); u != 1.0 { // clamped
		t.Fatalf("clamp=%f", u)
	}
	if s.CPUUtil(0, 4) != 0 {
		t.Fatal("zero elapsed")
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{Busy: time.Second, NetBytes: 10, TasksDone: 1}
	b := Snapshot{Busy: time.Second, NetBytes: 5, TasksDone: 2}
	sum := a.Add(b)
	if sum.Busy != 2*time.Second || sum.NetBytes != 15 || sum.TasksDone != 3 {
		t.Fatalf("%+v", sum)
	}
}

func TestSamplerTimeline(t *testing.T) {
	c1, c2 := &Counters{}, &Counters{}
	s := NewSampler(2*time.Millisecond, 2, c1, c2)
	s.Start()
	for i := 0; i < 5; i++ {
		c1.AddBusy(time.Millisecond)
		c2.AddNet(1000)
		time.Sleep(3 * time.Millisecond)
	}
	points := s.Stop()
	if len(points) < 3 {
		t.Fatalf("too few samples: %d", len(points))
	}
	var totalNet int64
	anyCPU := false
	for i, p := range points {
		if i > 0 && p.At <= points[i-1].At {
			t.Fatal("timeline not monotonic")
		}
		totalNet += p.NetBytes
		if p.CPUUtil > 0 {
			anyCPU = true
		}
		if p.CPUUtil < 0 || p.CPUUtil > 1 {
			t.Fatalf("util out of range: %f", p.CPUUtil)
		}
	}
	if totalNet == 0 || !anyCPU {
		t.Fatalf("deltas missing: net=%d cpu=%v", totalNet, anyCPU)
	}
}

func TestSamplerStopIdempotentish(t *testing.T) {
	c := &Counters{}
	s := NewSampler(time.Millisecond, 1, c)
	s.Start()
	time.Sleep(3 * time.Millisecond)
	a := s.Stop()
	b := s.Stop() // second stop must not panic and returns same data
	if len(b) < len(a) {
		t.Fatal("second stop lost points")
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := &Counters{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddNet(1)
				c.AddLive(1)
				c.AddLive(-1)
				c.TaskDone()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.NetBytes != 8000 || s.TasksDone != 8000 || s.LiveBytes != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestCacheHitRateEmptyWindow(t *testing.T) {
	var s Snapshot
	if got := s.CacheHitRate(); got != 0 {
		t.Fatalf("empty window hit rate = %v, want 0", got)
	}
	s.CacheHits = 3
	if got := s.CacheHitRate(); got != 1 {
		t.Fatalf("hit-only rate = %v, want 1", got)
	}
}

func TestCPUUtilDegenerateInputs(t *testing.T) {
	s := Snapshot{Busy: time.Second}
	for _, tc := range []struct {
		elapsed time.Duration
		threads int
	}{
		{0, 4}, {-time.Second, 4}, {time.Second, 0}, {time.Second, -1}, {0, 0},
	} {
		got := s.CPUUtil(tc.elapsed, tc.threads)
		if got != 0 || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("CPUUtil(%v, %d) = %v, want 0", tc.elapsed, tc.threads, got)
		}
	}
	// Over-subscribed busy time clamps to 1, never exceeds it.
	if got := (Snapshot{Busy: 10 * time.Second}).CPUUtil(time.Second, 2); got != 1 {
		t.Fatalf("clamped util = %v, want 1", got)
	}
}

// TestSamplerDegenerateConfig checks the NewSampler clamps: a zero or
// negative period must not panic time.NewTicker, and zero threads must
// not divide by zero in sample().
func TestSamplerDegenerateConfig(t *testing.T) {
	var c Counters
	for _, tc := range []struct {
		period  time.Duration
		threads int
	}{
		{0, 0}, {-time.Second, -3}, {0, 4}, {time.Millisecond, 0},
	} {
		s := NewSampler(tc.period, tc.threads, &c)
		s.Start()
		c.AddBusy(10 * time.Millisecond)
		time.Sleep(5 * time.Millisecond)
		pts := s.Stop()
		for _, p := range pts {
			if math.IsNaN(p.CPUUtil) || math.IsInf(p.CPUUtil, 0) || p.CPUUtil < 0 || p.CPUUtil > 1 {
				t.Fatalf("NewSampler(%v, %d): bad util %v", tc.period, tc.threads, p.CPUUtil)
			}
		}
	}
}

func TestSamplerNoCounters(t *testing.T) {
	s := NewSampler(time.Millisecond, 2)
	s.Start()
	time.Sleep(5 * time.Millisecond)
	for _, p := range s.Stop() {
		if math.IsNaN(p.CPUUtil) || p.CPUUtil != 0 {
			t.Fatalf("counter-less sampler util = %v", p.CPUUtil)
		}
	}
}
