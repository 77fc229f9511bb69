package cluster

import (
	"encoding/binary"
	"slices"
	"sync"

	"gminer/internal/transport"
	"gminer/internal/wire"
)

// maxEarly bounds how far past the first missing sequence a frame is held: a
// frame further ahead is dropped like a lost one and comes again, so a bogus
// sequence is never held, and acked in every header, for good.
const maxEarly = 1 << 10

// stream is a worker's end of the acknowledged streams, one per ordered pair
// of workers, that deliver the data frames (pull requests and responses,
// migration batches) exactly once over a job endpoint that may drop,
// duplicate, delay or reorder them (DESIGN §8, "One delivery rule"). The
// receiver delivers each sequence once, past a gap too; the sender keeps each
// frame until an ack covers it, and re-sends it once the receiver echoes a
// later tick of the sender's without acking it: the receiver took in what was
// sent after it, so it was lost. A frame unacked across two ticks with no such
// echo probes the receiver instead, so a peer that is only behind (its comm
// loop waits on its pull-serve pool, say) is never sent a copy. The stream
// never blocks and has no bound of its own: the pipeline's windows bound what
// it keeps.
type stream struct {
	transport.Endpoint
	peers []peerStream
}

// peerStream is one peer's two directions. got is the sequence up to which
// every frame from the peer was delivered, early the ones past it; now counts
// this worker's ticks, heard is the newest of the peer's it took a frame of,
// and echo the newest of its own the peer has echoed back.
type peerStream struct {
	mu               sync.Mutex
	sent, got        uint64
	now, heard, echo uint64
	unacked          []sentFrame // in sequence order
	early            map[uint64]bool
	ackDue           bool // a frame came since the ack last left
}

// sentFrame is a data frame kept, header included, until it is acked. It is
// a buffer of its own, not a pooled one: a pooled buffer of any size kept
// for a round trip would hold far more than the frame. at is the tick it
// last left at.
type sentFrame struct {
	typ     uint8
	seq, at uint64
	b       []byte
}

// streamHeader leads every data frame and msgAck: the frame's sequence (on a
// msgAck 0, or nonzero for a probe, which asks for an ack back), the sender's
// ack (the sequence up to which it holds every frame back), its tick count,
// the newest tick of the receiver's whose frame it took in, and the sequences
// it holds past its ack. An ack rides the next data frame back or, on the
// receiver's tick, a bare msgAck.
type streamHeader struct {
	seq, ack, tick, echo uint64
	early                []uint64
}

func newStream(ep transport.Endpoint, workers int) *stream {
	return &stream{Endpoint: ep, peers: make([]peerStream, workers)}
}

func dataFrame(typ uint8) bool { return typ == msgPullReq || typ == msgPullResp || typ == msgTasks }

// Send sends a data frame on its stream, under the peer's lock so frames
// leave in sequence order, and keeps it; any other passes through.
func (s *stream) Send(to int, typ uint8, payload []byte) error {
	if !dataFrame(typ) {
		return s.Endpoint.Send(to, typ, payload)
	}
	p := &s.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sent++
	b := append(p.header(make([]byte, 0, 24+len(payload)), p.sent), payload...)
	p.unacked = append(p.unacked, sentFrame{typ: typ, seq: p.sent, at: p.now, b: b})
	return s.Endpoint.Send(to, typ, b)
}

// header appends a stream header to b, after which the ack is no longer due.
// Caller holds p.mu.
func (p *peerStream) header(b []byte, seq uint64) []byte {
	for _, v := range [...]uint64{seq, p.got, p.now, p.heard, uint64(len(p.early))} {
		b = binary.AppendUvarint(b, v)
	}
	for e := range p.early {
		b = binary.AppendUvarint(b, e)
	}
	p.ackDue = false
	return b
}

// Recv returns the next frame to deliver: a control frame, or a data frame
// not delivered before, its header stripped.
func (s *stream) Recv() (transport.Message, bool) {
	for {
		m, ok := s.Endpoint.Recv()
		if !ok || s.deliver(&m) {
			return m, ok
		}
	}
}

// deliver takes in the header of a data frame or msgAck and reports whether m
// is to be delivered, stripping a data frame's header. A header that acks or
// echoes what was never sent, or a sequence too far ahead, drops the frame.
func (s *stream) deliver(m *transport.Message) bool {
	if !dataFrame(m.Type) && m.Type != msgAck {
		return true
	}
	h, body, err := decodeStreamHeader(m.Payload)
	if err != nil || m.From < 0 || m.From >= len(s.peers) {
		return false
	}
	p := &s.peers[m.From]
	p.mu.Lock()
	defer p.mu.Unlock()
	if h.ack > p.sent || h.echo > p.now || slices.ContainsFunc(h.early, func(e uint64) bool { return e > p.sent }) ||
		m.Type != msgAck && (h.seq == 0 || h.seq > p.got+maxEarly) {
		return false
	}
	p.unacked = slices.DeleteFunc(p.unacked, func(f sentFrame) bool {
		return f.seq <= h.ack || slices.Contains(h.early, f.seq)
	})
	p.heard, p.echo = max(p.heard, h.tick), max(p.echo, h.echo)
	if m.Type == msgAck {
		p.ackDue = p.ackDue || h.seq != 0 // a probe asks for an ack back
		return false
	}
	p.ackDue = true
	switch {
	case h.seq <= p.got || p.early[h.seq]:
		return false // a copy
	case h.seq == p.got+1:
		for p.got++; p.early[p.got+1]; p.got++ {
			delete(p.early, p.got+1)
		}
	case p.early == nil:
		p.early = map[uint64]bool{h.seq: true}
	default:
		p.early[h.seq] = true
	}
	m.Payload = body
	return true
}

// tick re-sends the frames each peer shows lost, probes a peer that has left
// a frame unacked across two ticks without, and acks, bare, each peer owed an
// ack. It returns the number of frames re-sent.
func (s *stream) tick() (resent int) {
	for to := range s.peers {
		p := &s.peers[to]
		p.mu.Lock()
		p.now++
		probe := uint64(0)
		for i := range p.unacked {
			switch f := &p.unacked[i]; {
			case f.at < p.echo:
				_ = s.Endpoint.Send(to, f.typ, f.b)
				f.at = p.now
				resent++
			case f.at+2 <= p.now:
				probe = p.sent
			}
		}
		if p.ackDue || probe != 0 {
			_ = s.Endpoint.Send(to, msgAck, p.header(nil, probe))
		}
		p.mu.Unlock()
	}
	return resent
}

// decodeStreamHeader splits a frame into its stream header and its body.
func decodeStreamHeader(b []byte) (h streamHeader, body []byte, err error) {
	r := wire.NewReader(b)
	h.seq, h.ack, h.tick, h.echo = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	h.early = make([]uint64, r.Count(1))
	for i := range h.early {
		h.early[i] = r.Uvarint()
	}
	return h, b[len(b)-r.Remaining():], r.Err()
}
