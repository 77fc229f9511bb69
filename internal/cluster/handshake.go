package cluster

import (
	"errors"
	"fmt"

	"gminer/internal/wire"
)

// Join/hello handshake of the multi-process cluster. A worker process
// dials the coordinator and sends a hello frame (transport.FrameHello)
// naming the protocol version it speaks, the node slot it claims (or -1
// for "assign me one"), the fingerprint of the graph + engine config it
// loaded, and the address peers should dial to reach it. The coordinator
// answers with a welcome frame: either a rejection with a reason, or the
// assigned node index plus the current peer address table.
//
// The version gate is what lets a rolling restart fail fast instead of
// corrupting a job: an old worker binary speaking handshakeVersion N
// against a coordinator at N+1 is refused at decode time, before it can
// join a mux channel. The fingerprint gate likewise refuses a worker that
// loaded a different graph, worker count or partitioner — any of which
// would silently break the determinism contract.

// handshakeVersion is the join protocol version. Bump on any incompatible
// change to the hello/welcome codecs or the control-plane messages.
// v2: transport frames carry a fencing generation, the welcome assigns
// one, the hello lists locally-held checkpoint epochs, and heartbeats are
// JSON payloads carrying the sender's generation.
// v3: a migration batch is a core.EncodeTasks list, which carries no
// to_pull.
const handshakeVersion = 3

// helloMagic / welcomeMagic open every handshake frame, so a stray or
// corrupt frame is distinguishable from a version skew.
const (
	helloMagic   = "GMHS"
	welcomeMagic = "GMWL"
)

// maxHandshakeAddr bounds an advertised address; maxHandshakePeers bounds
// the welcome's peer table. Both keep a hostile frame from provoking a
// large allocation.
const (
	maxHandshakeAddr  = 256
	maxHandshakePeers = 4096
	// maxHeldJobs / maxHeldEpochs bound the hello's held-checkpoint list:
	// jobs a restarted worker still has snapshot files for, and epochs per
	// job (the manifest only ever vouches for two).
	maxHeldJobs   = 256
	maxHeldEpochs = 16
	maxHeldJobID  = 256
)

// errVersionMismatch is returned by the decoders when the frame is
// well-formed but speaks a different handshake version.
var errVersionMismatch = errors.New("cluster: handshake version mismatch")

// heldEpochs names the committed-checkpoint epochs a (re)joining worker
// still holds local snapshot files for, one entry per job checkpoint
// directory. The coordinator intersects these across workers on a
// multi-process resume to pick the highest epoch every worker can
// restore. Epochs are newest-first; only files that parse as checkpoint
// names are listed (the commit-time CRC is still verified at restore).
type heldEpochs struct {
	JobID  string
	Epochs []int64
}

// helloFrame is the worker → coordinator join request.
type helloFrame struct {
	Version     uint32
	Node        int32  // claimed node slot, or -1 to be assigned one
	Fingerprint uint64 // jobFingerprint of the worker's graph + config
	Advertise   string // address peers dial to reach this worker
	// Held lists this worker's locally-held checkpoint epochs per job
	// (empty for fresh workers or slot auto-assignment: a worker that does
	// not yet know its node index cannot name its snapshot files).
	Held []heldEpochs
}

// welcomeFrame is the coordinator → worker reply.
type welcomeFrame struct {
	OK      bool
	Reason  string   // rejection reason when !OK
	Node    int32    // assigned node slot
	Workers int32    // cluster worker count K (nodes are 0..K, master at K)
	Peers   []string // dial addresses by node index; "" = not yet joined
	// Generation is the slot's fencing token: stamped on every frame this
	// worker sends, refused everywhere once a later generation claims the
	// slot.
	Generation int64
}

func encodeHello(h helloFrame) []byte {
	w := wire.NewWriter(64 + len(h.Advertise))
	for i := 0; i < len(helloMagic); i++ {
		w.Byte(helloMagic[i])
	}
	w.Uvarint(uint64(h.Version))
	w.Varint(int64(h.Node))
	w.Uvarint(h.Fingerprint)
	w.String(h.Advertise)
	w.Uvarint(uint64(len(h.Held)))
	for _, he := range h.Held {
		w.String(he.JobID)
		w.Uvarint(uint64(len(he.Epochs)))
		for _, e := range he.Epochs {
			w.Varint(e)
		}
	}
	return w.Bytes()
}

func decodeHello(b []byte) (helloFrame, error) {
	var h helloFrame
	if len(b) < len(helloMagic) || string(b[:len(helloMagic)]) != helloMagic {
		return h, fmt.Errorf("cluster: hello: bad magic")
	}
	r := wire.NewReader(b[len(helloMagic):])
	h.Version = uint32(r.Uvarint())
	h.Node = int32(r.Varint())
	h.Fingerprint = r.Uvarint()
	h.Advertise = r.String()
	// Gate the version before walking variable-length sections: a v1 frame
	// has no held list, and decoding one as v2 would misreport the skew.
	if r.Err() == nil && h.Version != handshakeVersion {
		return helloFrame{}, fmt.Errorf("%w: peer speaks v%d, this binary v%d",
			errVersionMismatch, h.Version, handshakeVersion)
	}
	nj := r.Uvarint()
	if r.Err() == nil && nj > maxHeldJobs {
		return helloFrame{}, fmt.Errorf("cluster: hello: %d held jobs", nj)
	}
	for i := uint64(0); i < nj && r.Err() == nil; i++ {
		var he heldEpochs
		he.JobID = r.String()
		if len(he.JobID) > maxHeldJobID {
			return helloFrame{}, fmt.Errorf("cluster: hello: held job id %d bytes long", len(he.JobID))
		}
		ne := r.Uvarint()
		if r.Err() == nil && ne > maxHeldEpochs {
			return helloFrame{}, fmt.Errorf("cluster: hello: %d held epochs", ne)
		}
		for j := uint64(0); j < ne && r.Err() == nil; j++ {
			he.Epochs = append(he.Epochs, r.Varint())
		}
		h.Held = append(h.Held, he)
	}
	if err := r.Err(); err != nil {
		return helloFrame{}, fmt.Errorf("cluster: hello: %w", err)
	}
	if r.Remaining() != 0 {
		return helloFrame{}, fmt.Errorf("cluster: hello: %d trailing bytes", r.Remaining())
	}
	if len(h.Advertise) > maxHandshakeAddr {
		return helloFrame{}, fmt.Errorf("cluster: hello: advertise address %d bytes long", len(h.Advertise))
	}
	return h, nil
}

func encodeWelcome(wf welcomeFrame) []byte {
	w := wire.NewWriter(64)
	for i := 0; i < len(welcomeMagic); i++ {
		w.Byte(welcomeMagic[i])
	}
	w.Uvarint(handshakeVersion)
	w.Bool(wf.OK)
	w.String(wf.Reason)
	w.Varint(int64(wf.Node))
	w.Varint(int64(wf.Workers))
	w.Uvarint(uint64(len(wf.Peers)))
	for _, p := range wf.Peers {
		w.String(p)
	}
	w.Varint(wf.Generation)
	return w.Bytes()
}

func decodeWelcome(b []byte) (welcomeFrame, error) {
	var wf welcomeFrame
	if len(b) < len(welcomeMagic) || string(b[:len(welcomeMagic)]) != welcomeMagic {
		return wf, fmt.Errorf("cluster: welcome: bad magic")
	}
	r := wire.NewReader(b[len(welcomeMagic):])
	version := uint32(r.Uvarint())
	wf.OK = r.Bool()
	wf.Reason = r.String()
	wf.Node = int32(r.Varint())
	wf.Workers = int32(r.Varint())
	n := r.Uvarint()
	if r.Err() == nil && n > maxHandshakePeers {
		return welcomeFrame{}, fmt.Errorf("cluster: welcome: %d peers", n)
	}
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		p := r.String()
		if len(p) > maxHandshakeAddr {
			return welcomeFrame{}, fmt.Errorf("cluster: welcome: peer address %d bytes long", len(p))
		}
		wf.Peers = append(wf.Peers, p)
	}
	wf.Generation = r.Varint()
	if err := r.Err(); err != nil {
		return welcomeFrame{}, fmt.Errorf("cluster: welcome: %w", err)
	}
	if r.Remaining() != 0 {
		return welcomeFrame{}, fmt.Errorf("cluster: welcome: %d trailing bytes", r.Remaining())
	}
	if version != handshakeVersion {
		return welcomeFrame{}, fmt.Errorf("%w: peer speaks v%d, this binary v%d",
			errVersionMismatch, version, handshakeVersion)
	}
	return wf, nil
}

// validateHello applies the coordinator's admission gates to a decoded
// hello. A nil error means the worker may be assigned (or keep) a slot.
func validateHello(h helloFrame, fingerprint uint64, workers int) error {
	if h.Fingerprint != fingerprint {
		return fmt.Errorf("cluster: join rejected: graph/config fingerprint %016x does not match coordinator %016x (same graph, -workers, -partitioner and -labels required)",
			h.Fingerprint, fingerprint)
	}
	if h.Node >= int32(workers) {
		return fmt.Errorf("cluster: join rejected: claimed node %d of a %d-worker cluster", h.Node, workers)
	}
	if h.Advertise == "" {
		return fmt.Errorf("cluster: join rejected: empty advertise address")
	}
	return nil
}
