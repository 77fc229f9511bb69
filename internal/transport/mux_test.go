package transport

import (
	"sync"
	"testing"
	"time"

	"gminer/internal/metrics"
	"gminer/internal/trace"
)

func newTestMux(nodes int) (*Mux, *LocalNetwork) {
	net := NewLocal(LocalConfig{Nodes: nodes})
	under := make([]Endpoint, nodes)
	for i := range under {
		under[i] = net.Endpoint(i)
	}
	return NewMux(under), net
}

func TestMuxRoutesPerChannel(t *testing.T) {
	mux, net := newTestMux(2)
	defer func() { mux.Close(); net.Close(); mux.WaitDemux() }()

	a, err := mux.Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.Open(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := a[0].Send(1, 7, []byte("chan-a")); err != nil {
		t.Fatal(err)
	}
	if err := b[0].Send(1, 7, []byte("chan-b")); err != nil {
		t.Fatal(err)
	}

	m, ok := a[1].RecvTimeout(time.Second)
	if !ok || string(m.Payload) != "chan-a" || m.From != 0 || m.Type != 7 {
		t.Fatalf("channel 1 recv: %+v ok=%v", m, ok)
	}
	m, ok = b[1].RecvTimeout(time.Second)
	if !ok || string(m.Payload) != "chan-b" {
		t.Fatalf("channel 2 recv: %+v ok=%v", m, ok)
	}
	// Nothing crossed channels.
	if _, ok := a[1].RecvTimeout(10 * time.Millisecond); ok {
		t.Fatal("channel 1 saw a second message")
	}
}

func TestMuxDropsStaleChannelTraffic(t *testing.T) {
	mux, net := newTestMux(2)
	defer func() { mux.Close(); net.Close(); mux.WaitDemux() }()

	a, err := mux.Open(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := mux.Open(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mux.CloseChannel(1)
	if _, ok := a[1].Recv(); ok {
		t.Fatal("recv on closed channel succeeded")
	}
	// A message sent into the torn-down channel is dropped, not delivered.
	_ = a[0].Send(1, 7, []byte("stale"))
	// Drive a live message through the same node so we know the demux loop
	// has consumed the stale one.
	_ = keep[0].Send(1, 7, []byte("live"))
	if m, ok := keep[1].RecvTimeout(time.Second); !ok || string(m.Payload) != "live" {
		t.Fatalf("live recv: %+v ok=%v", m, ok)
	}
	if got := mux.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if got := mux.Channels(); got != 1 {
		t.Fatalf("channels = %d, want 1", got)
	}
}

func TestMuxReopenSameChannelIDRejected(t *testing.T) {
	mux, net := newTestMux(1)
	defer func() { mux.Close(); net.Close(); mux.WaitDemux() }()
	if _, err := mux.Open(9, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Open(9, nil, nil); err == nil {
		t.Fatal("duplicate Open succeeded")
	}
	mux.CloseChannel(9)
	if _, err := mux.Open(9, nil, nil); err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
}

// Byte accounting and EvNetSend tracing are the mux's: each send is
// charged once, to the sender's counters on the sending channel, and
// traced once on that channel's tracer.
func TestMuxPerChannelAccounting(t *testing.T) {
	mux, net := newTestMux(2)
	defer func() { mux.Close(); net.Close(); mux.WaitDemux() }()
	ca := []*metrics.Counters{{}, {}}
	cb := []*metrics.Counters{{}, {}}
	tr := trace.New(2, 16).EnableEvents()
	a, _ := mux.Open(1, ca, tr)
	b, _ := mux.Open(2, cb, nil)
	_ = a[0].Send(1, 1, make([]byte, 100))
	_ = b[1].Send(0, 1, make([]byte, 10))
	if snap := ca[0].Snapshot(); snap.NetBytes != 100+16 || snap.NetMsgs != 1 {
		t.Fatalf("channel 1 node 0: %d bytes in %d messages", snap.NetBytes, snap.NetMsgs)
	}
	if got := tr.EventCount(trace.EvNetSend); got != 1 {
		t.Fatalf("channel 1 net_send events = %d, want 1", got)
	}
	if got := cb[1].Snapshot().NetBytes; got != 10+16 {
		t.Fatalf("channel 2 node 1 bytes = %d", got)
	}
	if got := ca[1].Snapshot().NetBytes; got != 0 {
		t.Fatalf("cross-charged bytes = %d", got)
	}
}

func TestMuxConcurrentChannels(t *testing.T) {
	const chans, msgs = 8, 200
	mux, net := newTestMux(3)
	defer func() { mux.Close(); net.Close(); mux.WaitDemux() }()

	var wg sync.WaitGroup
	for c := uint64(1); c <= chans; c++ {
		eps, err := mux.Open(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(eps []Endpoint, c uint64) {
			defer wg.Done()
			payload := []byte{byte(c)}
			for i := 0; i < msgs; i++ {
				_ = eps[0].Send(2, 5, payload)
			}
		}(eps, c)
		go func(eps []Endpoint, c uint64) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				m, ok := eps[2].RecvTimeout(5 * time.Second)
				if !ok {
					t.Errorf("channel %d: recv %d timed out", c, i)
					return
				}
				if len(m.Payload) != 1 || m.Payload[0] != byte(c) {
					t.Errorf("channel %d: foreign payload %v", c, m.Payload)
					return
				}
			}
		}(eps, c)
	}
	wg.Wait()
	if mux.Dropped() != 0 {
		t.Fatalf("dropped %d messages", mux.Dropped())
	}
}
