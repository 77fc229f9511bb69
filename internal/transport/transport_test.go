package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLocalSendRecv(t *testing.T) {
	n := NewLocal(LocalConfig{Nodes: 3})
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	if err := a.Send(1, 7, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	m, ok := b.Recv()
	if !ok || m.From != 0 || m.To != 1 || m.Type != 7 || string(m.Payload) != "ping" {
		t.Fatalf("got %+v ok=%v", m, ok)
	}
}

func TestLocalPayloadCopied(t *testing.T) {
	n := NewLocal(LocalConfig{Nodes: 2})
	defer n.Close()
	buf := []byte("abc")
	_ = n.Endpoint(0).Send(1, 1, buf)
	buf[0] = 'X' // sender reuses the buffer
	m, _ := n.Endpoint(1).Recv()
	if string(m.Payload) != "abc" {
		t.Fatal("payload aliased sender buffer")
	}
}

func TestLocalOrderingPerSender(t *testing.T) {
	n := NewLocal(LocalConfig{Nodes: 2})
	defer n.Close()
	ep := n.Endpoint(0)
	for i := 0; i < 100; i++ {
		_ = ep.Send(1, 1, []byte{byte(i)})
	}
	rx := n.Endpoint(1)
	for i := 0; i < 100; i++ {
		m, ok := rx.Recv()
		if !ok || m.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order: %v", i, m.Payload)
		}
	}
}

func TestLocalRecvTimeout(t *testing.T) {
	n := NewLocal(LocalConfig{Nodes: 1})
	defer n.Close()
	start := time.Now()
	_, ok := n.Endpoint(0).RecvTimeout(5 * time.Millisecond)
	if ok {
		t.Fatal("unexpected message")
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("timeout returned early")
	}
}

func TestLocalLatency(t *testing.T) {
	n := NewLocal(LocalConfig{Nodes: 2, Latency: 10 * time.Millisecond})
	defer n.Close()
	start := time.Now()
	_ = n.Endpoint(0).Send(1, 1, nil)
	_, ok := n.Endpoint(1).Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if d := time.Since(start); d < 9*time.Millisecond {
		t.Fatalf("latency not applied: %v", d)
	}
}

func TestLocalBandwidth(t *testing.T) {
	// 1 MB at 10 MB/s must take >= ~90ms.
	n := NewLocal(LocalConfig{Nodes: 2, BandwidthBps: 10 << 20})
	defer n.Close()
	start := time.Now()
	_ = n.Endpoint(0).Send(1, 1, make([]byte, 1<<20))
	_, _ = n.Endpoint(1).Recv()
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Fatalf("bandwidth not simulated: %v", d)
	}
}

func TestLocalInvalidDestination(t *testing.T) {
	n := NewLocal(LocalConfig{Nodes: 2})
	defer n.Close()
	if err := n.Endpoint(0).Send(5, 1, nil); err == nil {
		t.Fatal("expected error for invalid node")
	}
}

func TestLocalConcurrentSenders(t *testing.T) {
	n := NewLocal(LocalConfig{Nodes: 4})
	defer n.Close()
	const per = 200
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep := n.Endpoint(s)
			for i := 0; i < per; i++ {
				_ = ep.Send(3, 1, []byte(fmt.Sprintf("%d-%d", s, i)))
			}
		}(s)
	}
	rx := n.Endpoint(3)
	got := 0
	for got < 3*per {
		if _, ok := rx.Recv(); !ok {
			t.Fatal("recv failed")
		}
		got++
	}
	wg.Wait()
}

// The three tests below pin the timed pop: it sleeps on the cond, so a push
// or a close ends the wait at once and only the caller's deadline bounds it.
// Each waits under a deadline of a minute and must be back within seconds —
// an order-of-magnitude check, not a latency figure.
const generousDeadline = time.Minute

func timedPop(t *testing.T, mb *mailbox, wantOK bool) time.Duration {
	t.Helper()
	start := time.Now()
	_, ok := mb.pop(start.Add(generousDeadline))
	if ok != wantOK {
		t.Fatalf("pop ok=%v, want %v", ok, wantOK)
	}
	elapsed := time.Since(start)
	if elapsed > generousDeadline/10 {
		t.Fatalf("timed pop came back after %v: it sat out its deadline", elapsed)
	}
	return elapsed
}

func TestMailboxTimedPopWakesOnPush(t *testing.T) {
	mb := newMailbox()
	defer time.AfterFunc(20*time.Millisecond, func() { mb.push(Message{Type: 9}, time.Now()) }).Stop()
	timedPop(t, mb, true)
}

func TestMailboxTimedPopWakesOnClose(t *testing.T) {
	mb := newMailbox()
	defer time.AfterFunc(20*time.Millisecond, mb.close).Stop()
	timedPop(t, mb, false)
	// Untimed, with a message queued behind simulated latency: close must
	// still end the wait instead of the pop sleeping out the delivery time.
	mb = newMailbox()
	mb.push(Message{}, time.Now().Add(generousDeadline))
	defer time.AfterFunc(20*time.Millisecond, mb.close).Stop()
	start := time.Now()
	if _, ok := mb.pop(time.Time{}); ok || time.Since(start) > generousDeadline/10 {
		t.Fatalf("close during a latency wait: ok=%v after %v", ok, time.Since(start))
	}
}

func TestMailboxTimedPopHonoursDeadlineUnderLatency(t *testing.T) {
	// The head message is not deliverable before the caller's deadline: the
	// pop gives up at the deadline and leaves the message queued.
	mb := newMailbox()
	mb.push(Message{Type: 1}, time.Now().Add(generousDeadline))
	start := time.Now()
	if _, ok := mb.pop(start.Add(30 * time.Millisecond)); ok {
		t.Fatal("popped a message before its delivery time")
	}
	if d := time.Since(start); d < 30*time.Millisecond || d > generousDeadline/10 {
		t.Fatalf("gave up after %v, want the 30ms deadline", d)
	}
	// Deliverable before the deadline: the pop returns it when it comes due.
	mb = newMailbox()
	due := time.Now().Add(30 * time.Millisecond)
	mb.push(Message{Type: 2}, due)
	timedPop(t, mb, true)
	if time.Now().Before(due) {
		t.Fatal("message delivered before its not-before time")
	}
}
