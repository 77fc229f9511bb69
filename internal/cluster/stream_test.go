package cluster

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"gminer/internal/chaos"
	"gminer/internal/gen"
	"gminer/internal/jobspec"
	"gminer/internal/transport"
	"gminer/internal/wire"
)

// newCDJob is the cut job's cluster running community detection, which emits
// records, on the cut job's graph with attributes dealt.
func newCDJob(t *testing.T) cutJob {
	c := newCutJob(t)
	gen.AssignAttrs(c.g, 3, 4, 91)
	c.spec = jobspec.Spec{App: "cd"}.Normalize()
	return c
}

// recvFor is Recv on s, waiting up to d for each frame.
func recvFor(s *stream, d time.Duration) (transport.Message, bool) {
	for {
		m, ok := s.Endpoint.RecvTimeout(d)
		if !ok || s.deliver(&m) {
			return m, ok
		}
	}
}

// wireFault passes frames on, bar those fault answers for: the nth data frame
// sent (from 1) is dropped with "drop", sent twice with "dup".
type wireFault struct {
	transport.Endpoint
	mu    sync.Mutex
	n     int
	fault func(n int, typ uint8) string
}

func (e *wireFault) Send(to int, typ uint8, payload []byte) error {
	e.mu.Lock()
	e.n++
	what := e.fault(e.n, typ)
	e.mu.Unlock()
	switch what {
	case "drop":
		return nil
	case "dup":
		_ = e.Endpoint.Send(to, typ, payload)
	}
	return e.Endpoint.Send(to, typ, payload)
}

// bodies reads what b delivers until it stays silent, as payload strings.
func bodies(b *stream) []string {
	var out []string
	for {
		m, ok := recvFor(b, 20*time.Millisecond)
		if !ok {
			return out
		}
		out = append(out, string(m.Payload))
	}
}

// encodeStreamHeader is h as a peer's frame carries it.
func encodeStreamHeader(h streamHeader) []byte {
	w := wire.NewWriter(16)
	for _, v := range []uint64{h.seq, h.ack, h.tick, h.echo, uint64(len(h.early))} {
		w.Uvarint(v)
	}
	for _, e := range h.early {
		w.Uvarint(e)
	}
	return w.Bytes()
}

// The stream turns a lossy, duplicating link into exactly-once delivery: a
// frame past a gap is delivered, the lost one with the re-send, a copy is
// dropped, an ack frees what it covers, and a frame goes again only once the
// peer has echoed a later tick of the sender's without acking it.
func TestStreamRepairsLossAndDuplication(t *testing.T) {
	net := transport.NewLocal(transport.LocalConfig{Nodes: 2})
	t.Cleanup(net.Close)
	healed := false
	a := newStream(&wireFault{Endpoint: net.Endpoint(0), fault: func(n int, typ uint8) string {
		switch {
		case healed:
			return ""
		case n == 2:
			return "drop"
		case n == 3:
			return "dup"
		}
		return ""
	}}, 2)
	b := newStream(net.Endpoint(1), 2)
	for _, p := range []string{"1", "2", "3"} {
		if err := a.Send(1, msgPullReq, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := bodies(b); !slices.Equal(got, []string{"1", "3"}) {
		t.Fatalf("delivered %q before the re-send; want 1 and 3, once each", got)
	}
	if p := &b.peers[0]; p.got != 1 {
		t.Fatalf("b owes ack %d; want 1, the last sequence before the gap", p.got)
	}
	healed = true
	// a hears nothing from b: its first tick waits, its second probes.
	for i := 1; i <= 2; i++ {
		if n := a.tick(); n != 0 {
			t.Fatalf("tick %d re-sent %d frames before b echoed a later one", i, n)
		}
	}
	if got := bodies(b); len(got) != 0 {
		t.Fatalf("the probe delivered %q", got)
	}
	b.tick() // b acks 1 and 3 and echoes the probe's tick
	if _, ok := recvFor(a, 20*time.Millisecond); ok {
		t.Fatal("a bare ack was delivered to the worker")
	}
	if p := &a.peers[1]; len(p.unacked) != 1 || p.unacked[0].seq != 2 || p.echo != 2 {
		t.Fatalf("a keeps %d frames with echo %d; want the lost 2 alone, echo 2", len(p.unacked), p.echo)
	}
	if n := a.tick(); n != 1 {
		t.Fatalf("a re-sent %d frames, want the lost one", n)
	}
	if got := bodies(b); !slices.Equal(got, []string{"2"}) {
		t.Fatalf("delivered %q after the re-send; want the lost 2 alone", got)
	}
	if p := &b.peers[0]; p.got != 3 || len(p.early) != 0 {
		t.Fatalf("b owes ack %d with %v early; want 3 and none", p.got, p.early)
	}
	b.tick()
	if _, ok := recvFor(a, 20*time.Millisecond); ok {
		t.Fatal("a bare ack was delivered to the worker")
	}
	if n := len(a.peers[1].unacked); n != 0 {
		t.Fatalf("%d frames kept after b's ack", n)
	}
	for i := 0; i < 4; i++ {
		if n := a.tick(); n != 0 {
			t.Fatalf("an acknowledged frame was re-sent")
		}
	}
	if m, ok := net.Endpoint(1).RecvTimeout(20 * time.Millisecond); ok {
		t.Fatalf("a sent %+v with nothing unacked and no ack due", m)
	}
	// A data frame back carries the ack itself: no bare ack follows.
	_ = a.Send(1, msgTasks, []byte("4"))
	if got := bodies(b); !slices.Equal(got, []string{"4"}) {
		t.Fatalf("delivered %q", got)
	}
	_ = b.Send(0, msgPullResp, []byte("r"))
	if m, ok := recvFor(a, 20*time.Millisecond); !ok || string(m.Payload) != "r" || m.Type != msgPullResp {
		t.Fatalf("got %+v, %v; want the response", m, ok)
	}
	if n := len(a.peers[1].unacked); n != 0 {
		t.Fatalf("%d frames kept after an ack rode a data frame", n)
	}
	b.tick() // nothing came from a since b's frame carried its ack
	if m, ok := net.Endpoint(0).RecvTimeout(20 * time.Millisecond); ok {
		t.Fatalf("b sent %+v with no ack due", m)
	}
}

// A peer that is behind is probed, never flooded: however long it leaves a
// frame unread, and whatever it sends meanwhile, no copy goes; once it reads
// the frame, its ack frees it.
func TestStreamSparesABusyPeer(t *testing.T) {
	net := transport.NewLocal(transport.LocalConfig{Nodes: 2})
	t.Cleanup(net.Close)
	a, b := newStream(net.Endpoint(0), 2), newStream(net.Endpoint(1), 2)
	_ = a.Send(1, msgPullReq, []byte("q")) // b does not read it: its comm loop is busy
	for i := 1; i <= 20; i++ {
		_ = b.Send(0, msgPullResp, []byte{byte(i)}) // but b still answers earlier requests
		if _, ok := recvFor(a, 20*time.Millisecond); !ok {
			t.Fatal("b's frame did not arrive")
		}
		if n := a.tick(); n != 0 {
			t.Fatalf("tick %d re-sent %d frames to a peer that is behind", i, n)
		}
	}
	if got := bodies(b); !slices.Equal(got, []string{"q"}) {
		t.Fatalf("b read %q; want the request once, and the probes delivered nothing", got)
	}
	b.tick()
	recvFor(a, 20*time.Millisecond)
	if n := len(a.peers[1].unacked); n != 0 || a.tick() != 0 {
		t.Fatalf("%d frames kept after b read and acked the request", n)
	}
}

// The stream never blocks its caller: a peer that acks nothing leaves every
// frame kept, and one ack frees them all.
func TestStreamSendNeverBlocks(t *testing.T) {
	net := transport.NewLocal(transport.LocalConfig{Nodes: 2})
	t.Cleanup(net.Close)
	a := newStream(net.Endpoint(0), 2)
	const frames = 10000
	for i := 0; i < frames; i++ {
		if err := a.Send(1, msgPullResp, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(a.peers[1].unacked); n != frames {
		t.Fatalf("%d frames kept, want %d", n, frames)
	}
	if err := net.Endpoint(1).Send(0, msgAck, encodeStreamHeader(streamHeader{ack: frames})); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvFor(a, 20*time.Millisecond); ok {
		t.Fatal("a bare ack was delivered")
	}
	if n := len(a.peers[1].unacked); n != 0 {
		t.Fatalf("%d frames kept after the ack of all", n)
	}
}

// A header that speaks of what its receiver never sent, or of a sequence far
// past the gap, drops its frame: it frees no kept frame, moves no ack or echo,
// is not delivered and leaves nothing held past the gap.
func TestStreamDropsImpossibleHeaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  uint8
		h    streamHeader
	}{
		{"ack past what was sent", msgAck, streamHeader{ack: 4}},
		{"early entry never sent", msgAck, streamHeader{early: []uint64{2, 9}}},
		{"echo of a tick not reached", msgAck, streamHeader{echo: 2}},
		{"sequence far past the gap", msgTasks, streamHeader{seq: maxEarly + 2}},
		{"data frame without a sequence", msgTasks, streamHeader{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStream(discardEndpoint{}, 2)
			for i := 0; i < 3; i++ {
				_ = s.Send(1, msgPullReq, []byte{byte(i)})
			}
			s.tick()
			m := transport.Message{From: 1, Type: tc.typ, Payload: append(encodeStreamHeader(tc.h), 'x')}
			if s.deliver(&m) {
				t.Fatal("delivered")
			}
			if p := &s.peers[1]; len(p.unacked) != 3 || p.echo != 0 || p.heard != 0 || p.got != 0 || len(p.early) != 0 || p.ackDue {
				t.Fatalf("the frame moved the stream: %d kept, echo %d, heard %d, got %d, early %v, ack due %v",
					len(p.unacked), p.echo, p.heard, p.got, p.early, p.ackDue)
			}
		})
	}
}

// A migration batch dropped once, or delivered twice, with no kill: the
// stream re-sends the lost one and drops the copy, so the job ends with the
// fault-free run's records and tasks done. (Before the stream a lost batch
// held the job's end forever, and a doubled one ran its tasks twice.)
func TestMigrationBatchFaultsWithoutKill(t *testing.T) {
	c := newCDJob(t)
	run := func(fault string) *Result {
		s, err := NewSession(c.g, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		var mu sync.Mutex
		faulted := make(chan struct{})
		s.wrapEps = func(eps []transport.Endpoint) {
			for i, ep := range eps {
				eps[i] = &wireFault{Endpoint: ep, fault: func(int, uint8) string { return "" }}
				if fault == "" {
					continue
				}
				eps[i].(*wireFault).fault = func(_ int, typ uint8) string {
					mu.Lock()
					defer mu.Unlock()
					if typ != msgTasks || closed(faulted) {
						return ""
					}
					close(faulted)
					return fault
				}
			}
		}
		a, err := jobspec.Build(c.g, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Launch(a, JobOptions{ID: "batch-" + fault})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var res *Result
		go func() {
			defer close(done)
			res, err = j.Wait()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the job did not end within 10 s", fault)
		}
		if err != nil {
			t.Fatal(err)
		}
		if fault != "" && !closed(faulted) {
			t.Fatalf("%s: the job moved no batch to fault", fault)
		}
		return res
	}
	ref := run("")
	if len(ref.Records) == 0 || ref.Total.Stolen == 0 {
		t.Fatalf("fault-free run: %d records, %d tasks stolen; the reproducer needs both", len(ref.Records), ref.Total.Stolen)
	}
	for _, fault := range []string{"drop", "dup"} {
		res := run(fault)
		if !slices.Equal(res.Records, ref.Records) || res.Total.TasksDone != ref.Total.TasksDone {
			t.Fatalf("%s: %d records over %d tasks; want the fault-free %d over %d",
				fault, len(res.Records), res.Total.TasksDone, len(ref.Records), ref.Total.TasksDone)
		}
	}
}

// On the process host a stealing job under a seeded 10% drop gives the
// fault-free run's records and tasks done: worker processes wrap their job
// endpoints with the profile the job start carries.
func TestProcessHostStealsUnderDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process job")
	}
	c := newCDJob(t)
	a, err := jobspec.Build(c.g, c.spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(c.g, a, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.cfg.Chaos = chaos.New(chaos.Profile{Seed: 5, Drop: 0.10})
	j, _ := c.launch(t, true, nil)
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Chaos.Stats().Drops == 0 || res.Total.Stolen == 0 {
		t.Fatalf("%d frames dropped, %d tasks stolen: the job tested neither", c.cfg.Chaos.Stats().Drops, res.Total.Stolen)
	}
	if !slices.Equal(res.Records, ref.Records) || res.Total.TasksDone != ref.Total.TasksDone || len(ref.Records) == 0 {
		t.Fatalf("%d records over %d tasks; want the fault-free %d over %d",
			len(res.Records), res.Total.TasksDone, len(ref.Records), ref.Total.TasksDone)
	}
}

// What the stream keeps is bounded by the pipeline's windows, not by the job:
// under a 10% drop every pull request a worker's stream keeps names vertices
// still in flight — a response, even one dropped past a gap, carries the ack
// that frees its request — so the CMQ window, which bounds the pulls in
// flight, bounds the requests kept, and the responses to them.
func TestStreamKeepsWithinTheWindows(t *testing.T) {
	c := newCutJob(t)
	c.cfg.Chaos = chaos.New(chaos.Profile{Seed: 9, Drop: 0.10})
	s, err := NewSession(c.g, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	j, err := s.Launch(c.build(t), JobOptions{ID: "bound"})
	if err != nil {
		t.Fatal(err)
	}
	worker := goroutineWorkers(j)
	peak, samples := 0, 0
	for !j.Done() {
		for i := 0; i < c.cfg.Workers; i++ {
			if w := worker(i); w != nil {
				peak = max(peak, keptRequests(t, w))
				samples++
			}
		}
		runtime.Gosched()
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.AggGlobal != c.seq.AggGlobal || res.Total.TasksDone != c.seq.Tasks {
		t.Fatalf("count %v over %d tasks; want %v over %d", res.AggGlobal, res.Total.TasksDone, c.seq.AggGlobal, c.seq.Tasks)
	}
	if samples == 0 || c.cfg.Chaos.Stats().Drops == 0 {
		t.Fatalf("%d samples, %d drops: nothing was checked", samples, c.cfg.Chaos.Stats().Drops)
	}
	t.Logf("%d samples; at most %d pull requests kept on one worker (window %d vertices)", samples, peak, c.cfg.CacheCapacity)
}

// keptRequests checks, with w's CMQ and stream held still, that every pull
// request its stream keeps names only vertices still in flight, and returns
// how many it keeps.
func keptRequests(t *testing.T, w *Worker) int {
	w.pendMu.Lock()
	defer w.pendMu.Unlock()
	kept := 0
	for p := range w.ep.peers {
		ps := &w.ep.peers[p]
		ps.mu.Lock()
		for _, f := range ps.unacked {
			if f.typ != msgPullReq {
				continue
			}
			kept++
			_, body, err := decodeStreamHeader(f.b)
			ids, derr := decodePullReq(body)
			if err != nil || derr != nil {
				t.Errorf("kept request undecodable: %v %v", err, derr)
			}
			for _, id := range ids {
				if w.pulls[id] == nil {
					t.Errorf("worker %d keeps a request for %d, which is no longer in flight", w.id, id)
				}
			}
		}
		ps.mu.Unlock()
	}
	if kept > len(w.pulls) {
		t.Errorf("worker %d keeps %d requests for %d vertices in flight", w.id, kept, len(w.pulls))
	}
	return kept
}
