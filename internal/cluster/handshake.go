package cluster

import (
	"errors"
	"fmt"
)

// Join/hello handshake of the multi-process cluster. A worker process
// dials the coordinator and sends a hello frame (transport.FrameHello)
// naming the protocol version it speaks, the node slot it claims (or -1
// for "assign me one"), the fingerprint of the graph + engine config it
// loaded, and the address peers should dial to reach it. The coordinator
// answers with a welcome frame: either a rejection with a reason, or the
// assigned node index plus the current peer address table. Both are
// control records: JSON through encodeCtrl/decodeCtrl, like every message
// on the control channel.
//
// The version gate is what lets a rolling restart fail fast instead of
// corrupting a job: an old worker binary speaking handshakeVersion N
// against a coordinator at N+1 is refused at decode time, before it can
// join a mux channel. The fingerprint gate likewise refuses a worker that
// loaded a different graph, worker count or partitioner — any of which
// would silently break the determinism contract.

// handshakeVersion is the join protocol version. Bump on any incompatible
// change to the hello/welcome records or the control-plane messages.
// v2: transport frames carry a fencing generation, the welcome assigns
// one, the hello lists locally-held checkpoint epochs, and heartbeats are
// JSON payloads carrying the sender's generation.
// v3: a migration batch is a core.EncodeTasks list, which carries no
// to_pull.
// v4: the hello and welcome are JSON; a job start may be strict.
// v5: data frames carry the stream header (stream.go), and a job start
// carries the job's fault profile.
const handshakeVersion = 5

// The handshake's bounds keep a hostile frame from provoking a large
// allocation or an oversized registry entry. maxHandshakeFrame caps a
// hello or welcome before it is decoded (the transport reads a welcome of
// at most the same size); the rest are checked on the decoded record.
const (
	maxHandshakeFrame = 1 << 20
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
	JobID  string  `json:"job_id"`
	Epochs []int64 `json:"epochs"`
}

// helloFrame is the worker → coordinator join request.
type helloFrame struct {
	Version     uint32 `json:"version"`
	Node        int32  `json:"node"`        // claimed node slot, or -1 to be assigned one
	Fingerprint uint64 `json:"fingerprint"` // jobFingerprint of the worker's graph + config
	Advertise   string `json:"advertise"`   // address peers dial to reach this worker
	// Held lists this worker's locally-held checkpoint epochs per job
	// (empty for fresh workers or slot auto-assignment: a worker that does
	// not yet know its node index cannot name its snapshot files).
	Held []heldEpochs `json:"held,omitempty"`
}

// welcomeFrame is the coordinator → worker reply.
type welcomeFrame struct {
	Version uint32   `json:"version"`
	OK      bool     `json:"ok"`
	Reason  string   `json:"reason,omitempty"` // rejection reason when !OK
	Node    int32    `json:"node"`             // assigned node slot
	Workers int32    `json:"workers"`          // cluster worker count K (nodes are 0..K, master at K)
	Peers   []string `json:"peers,omitempty"`  // dial addresses by node index; "" = not yet joined
	// Generation is the slot's fencing token: stamped on every frame this
	// worker sends, refused everywhere once a later generation claims the
	// slot.
	Generation int64 `json:"generation"`
}

// decodeHandshake decodes a hello or welcome into v. The size cap comes
// first, then the version, read on its own: a peer at another version is
// told so whatever the rest of its frame holds.
func decodeHandshake(what string, b []byte, v any) error {
	if len(b) > maxHandshakeFrame {
		return fmt.Errorf("cluster: %s: %d-byte frame exceeds %d-byte bound", what, len(b), maxHandshakeFrame)
	}
	var head struct {
		Version uint32 `json:"version"`
	}
	if err := decodeCtrl(b, &head); err != nil {
		return fmt.Errorf("cluster: %s: not a v%d handshake: %w", what, handshakeVersion, err)
	}
	if head.Version != handshakeVersion {
		return fmt.Errorf("%w: peer speaks v%d, this binary v%d", errVersionMismatch, head.Version, handshakeVersion)
	}
	if err := decodeCtrl(b, v); err != nil {
		return fmt.Errorf("cluster: %s: %w", what, err)
	}
	return nil
}

func decodeHello(b []byte) (helloFrame, error) {
	var h helloFrame
	if err := decodeHandshake("hello", b, &h); err != nil {
		return helloFrame{}, err
	}
	if len(h.Advertise) > maxHandshakeAddr {
		return helloFrame{}, fmt.Errorf("cluster: hello: advertise address %d bytes long", len(h.Advertise))
	}
	if len(h.Held) > maxHeldJobs {
		return helloFrame{}, fmt.Errorf("cluster: hello: %d held jobs", len(h.Held))
	}
	for _, he := range h.Held {
		if len(he.JobID) > maxHeldJobID {
			return helloFrame{}, fmt.Errorf("cluster: hello: held job id %d bytes long", len(he.JobID))
		}
		if len(he.Epochs) > maxHeldEpochs {
			return helloFrame{}, fmt.Errorf("cluster: hello: %d held epochs", len(he.Epochs))
		}
	}
	return h, nil
}

func decodeWelcome(b []byte) (welcomeFrame, error) {
	var wf welcomeFrame
	if err := decodeHandshake("welcome", b, &wf); err != nil {
		return welcomeFrame{}, err
	}
	if len(wf.Peers) > maxHandshakePeers {
		return welcomeFrame{}, fmt.Errorf("cluster: welcome: %d peers", len(wf.Peers))
	}
	for _, p := range wf.Peers {
		if len(p) > maxHandshakeAddr {
			return welcomeFrame{}, fmt.Errorf("cluster: welcome: peer address %d bytes long", len(p))
		}
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
