package chaos

import (
	"testing"
	"time"

	"gminer/internal/trace"
	"gminer/internal/transport"
)

func twoNodeNet(t *testing.T) *transport.LocalNetwork {
	t.Helper()
	net := transport.NewLocal(transport.LocalConfig{Nodes: 2})
	t.Cleanup(net.Close)
	return net
}

// drain receives until the box goes quiet for `idle` and returns the
// payload bytes seen, in arrival order.
func drain(ep transport.Endpoint, idle time.Duration) [][]byte {
	var got [][]byte
	for {
		m, ok := ep.RecvTimeout(idle)
		if !ok {
			return got
		}
		got = append(got, m.Payload)
	}
}

func TestZeroProfilePassesThrough(t *testing.T) {
	net := twoNodeNet(t)
	c := New(Profile{})
	ep := c.Wrap(net.Endpoint(0))
	if _, wrapped := ep.(*endpoint); wrapped {
		t.Fatal("inactive profile should not wrap the endpoint")
	}
	if err := ep.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := drain(net.Endpoint(1), 20*time.Millisecond); len(got) != 1 {
		t.Fatalf("got %d messages, want 1", len(got))
	}
}

func TestDropRateIsApproximatelyHonored(t *testing.T) {
	net := twoNodeNet(t)
	c := New(Profile{Seed: 1, Drop: 0.25})
	ep := c.Wrap(net.Endpoint(0))
	const n = 4000
	for i := 0; i < n; i++ {
		_ = ep.Send(1, 1, []byte{byte(i)})
	}
	got := drain(net.Endpoint(1), 20*time.Millisecond)
	st := c.Stats()
	if st.Sends != n {
		t.Fatalf("sends=%d want %d", st.Sends, n)
	}
	if int64(len(got))+st.Drops != n {
		t.Fatalf("delivered %d + dropped %d != %d", len(got), st.Drops, n)
	}
	// 4000 Bernoulli(0.25) trials: expect ~1000, allow a wide band.
	if st.Drops < 800 || st.Drops > 1200 {
		t.Fatalf("drops=%d, want ≈1000", st.Drops)
	}
}

func TestSameSeedSameFaultSequence(t *testing.T) {
	run := func() []int {
		net := transport.NewLocal(transport.LocalConfig{Nodes: 2})
		defer net.Close()
		c := New(Profile{Seed: 99, Drop: 0.3})
		ep := c.Wrap(net.Endpoint(0))
		var delivered []int
		for i := 0; i < 200; i++ {
			_ = ep.Send(1, 1, []byte{byte(i)})
		}
		for _, p := range drain(net.Endpoint(1), 20*time.Millisecond) {
			delivered = append(delivered, int(p[0]))
		}
		return delivered
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	net := twoNodeNet(t)
	c := New(Profile{Seed: 5, Dup: 1})
	ep := c.Wrap(net.Endpoint(0))
	if err := ep.Send(1, 1, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if got := drain(net.Endpoint(1), 20*time.Millisecond); len(got) != 2 {
		t.Fatalf("got %d copies, want 2", len(got))
	}
	if c.Stats().Dups != 1 {
		t.Fatalf("dups=%d", c.Stats().Dups)
	}
}

func TestDelayHoldsAndStillDelivers(t *testing.T) {
	net := twoNodeNet(t)
	c := New(Profile{Seed: 7, Delay: 1, DelayMin: 5 * time.Millisecond, DelayMax: 10 * time.Millisecond})
	ep := c.Wrap(net.Endpoint(0))
	start := time.Now()
	_ = ep.Send(1, 1, []byte("late"))
	m, ok := net.Endpoint(1).RecvTimeout(time.Second)
	if !ok {
		t.Fatal("delayed message never delivered")
	}
	if since := time.Since(start); since < 4*time.Millisecond {
		t.Fatalf("message arrived after %v, expected ≥5ms hold", since)
	}
	if string(m.Payload) != "late" {
		t.Fatalf("payload %q", m.Payload)
	}
}

func TestDelayedPayloadIsCopied(t *testing.T) {
	net := twoNodeNet(t)
	c := New(Profile{Seed: 7, Delay: 1, DelayMin: 5 * time.Millisecond, DelayMax: 10 * time.Millisecond})
	ep := c.Wrap(net.Endpoint(0))
	buf := []byte("good")
	_ = ep.Send(1, 1, buf)
	copy(buf, "evil") // sender reuses its encode buffer immediately
	m, ok := net.Endpoint(1).RecvTimeout(time.Second)
	if !ok || string(m.Payload) != "good" {
		t.Fatalf("delayed payload corrupted: %q ok=%v", m.Payload, ok)
	}
}

func TestPartitionWindowBlackholes(t *testing.T) {
	net := twoNodeNet(t)
	c := New(Profile{Seed: 3, Partitions: []Window{{Node: 1, From: 0, To: 50 * time.Millisecond}}})
	ep := c.Wrap(net.Endpoint(0))
	_ = ep.Send(1, 1, []byte("lost"))
	if got := drain(net.Endpoint(1), 10*time.Millisecond); len(got) != 0 {
		t.Fatalf("partitioned node received %d messages", len(got))
	}
	if c.Stats().Partitions != 1 {
		t.Fatalf("partitions=%d", c.Stats().Partitions)
	}
	// After the window closes, traffic flows again.
	time.Sleep(55 * time.Millisecond)
	_ = ep.Send(1, 1, []byte("ok"))
	if got := drain(net.Endpoint(1), 100*time.Millisecond); len(got) != 1 {
		t.Fatalf("post-window delivery failed: %d messages", len(got))
	}
}

func TestFaultsAreTraced(t *testing.T) {
	net := twoNodeNet(t)
	c := New(Profile{Seed: 13, Drop: 1})
	tr := trace.New(2, 64).EnableEvents()
	c.SetTracer(tr)
	ep := c.Wrap(net.Endpoint(0))
	_ = ep.Send(1, 9, nil)
	if n := tr.EventCount(trace.EvFaultInjected); n != 1 {
		t.Fatalf("EvFaultInjected count=%d", n)
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Type != trace.EvFaultInjected {
		t.Fatalf("events: %+v", evs)
	}
	if kind, typ := Kind(evs[0].Arg>>8), uint8(evs[0].Arg&0xff); kind != KindDrop || typ != 9 {
		t.Fatalf("arg decodes to kind=%v typ=%d", kind, typ)
	}
}

func TestParseProfileNamedAndCustom(t *testing.T) {
	p, err := ParseProfile("default", 42)
	if err != nil || !p.Active() || p.Seed != 42 || len(p.Crashes) != 1 {
		t.Fatalf("default: %+v err=%v", p, err)
	}
	if p, err = ParseProfile("off", 1); err != nil || p.Active() {
		t.Fatalf("off: %+v err=%v", p, err)
	}
	p, err = ParseProfile("drop=0.1,delay=0.2,delaymin=1ms,delaymax=5ms,crash=2@10ms+20ms,partition=0@5ms-9ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.1 || p.Delay != 0.2 || p.DelayMin != time.Millisecond || p.DelayMax != 5*time.Millisecond {
		t.Fatalf("rates: %+v", p)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (Crash{Node: 2, At: 10 * time.Millisecond, RecoverAfter: 20 * time.Millisecond}) {
		t.Fatalf("crash: %+v", p.Crashes)
	}
	if len(p.Partitions) != 1 || p.Partitions[0] != (Window{Node: 0, From: 5 * time.Millisecond, To: 9 * time.Millisecond}) {
		t.Fatalf("partition: %+v", p.Partitions)
	}
	for _, bad := range []string{"drop=2", "nope=1", "crash=x@1ms", "partition=0@9ms-5ms", "drop"} {
		if _, err := ParseProfile(bad, 0); err == nil {
			t.Fatalf("ParseProfile(%q) accepted invalid spec", bad)
		}
	}
}

func TestNilControllerInert(t *testing.T) {
	var nilC *Controller
	if nilC.Profile().Active() || nilC.Stats() != (Stats{}) || nilC.Crashes() != nil {
		t.Fatal("nil controller not inert")
	}
}
