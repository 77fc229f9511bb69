package cluster

import (
	"encoding/json"
	"fmt"

	"gminer/internal/chaos"
	"gminer/internal/jobspec"
	"gminer/internal/metrics"
)

// Control plane of the multi-process cluster. Mux channel 0 is reserved
// for coordinator ↔ worker-process control traffic; job channels start at
// 1 (Session.reserve).
//
// One codec rule: a control record is JSON through encodeCtrl/decodeCtrl,
// on the wire or on disk — the join hello and welcome, every message on
// this channel, and the checkpoint MANIFEST and JOBSPEC files. They are
// small, infrequent (a join, a job start/stop, a final result, a heartbeat,
// a committed epoch) and evolve more often than the hot-path codecs, so
// self-describing encoding beats hand-rolled wire here. Engine messages on
// job channels (progress reports ride every heartbeat; pulls and tasks are
// the hot path) and bulk payloads (snapshot task lists, records inside a
// snapshot) stay binary.
//
// Message types live in their own range (64+) so a control frame
// misrouted onto a job channel can never be mistaken for an engine
// message (those are 1..12).
// ctrlChannel is the mux channel reserved for the control plane.
const ctrlChannel uint64 = 0

const (
	// ctrlJobStart: coordinator → worker process. Open a job channel,
	// build the engine worker (restoring from the named committed epoch, if
	// any), start mining. A start on a new channel for a job the process
	// runs is the job's next attempt: it ends the old one first.
	ctrlJobStart uint8 = 64 + iota
	// ctrlJobStop: coordinator → worker process. Tear the job channel
	// down if it is still up (late or lost msgStop backstop), or kill the
	// job's worker (failure simulation).
	ctrlJobStop
	// ctrlJobResult: worker process → coordinator. The worker's final
	// records and counter snapshot for one finished job — or, with Err set,
	// the nack of a ctrlJobStart the process could not carry out.
	ctrlJobResult
	// ctrlTopology: coordinator → worker process. The current peer
	// address table; re-broadcast on every join so live workers learn a
	// replacement's address.
	ctrlTopology
	// ctrlHeartbeat: worker process → coordinator. Liveness for /healthz.
	// The payload is a heartbeatMsg carrying the sender's fencing
	// generation and draining state (the frame's from-node identifies the
	// sender).
	ctrlHeartbeat
	// ctrlDrain: worker process → coordinator. The worker received SIGTERM
	// and entered the draining state: hold its jobs, run a barrier
	// checkpoint, and answer ctrlDrainOK once the epoch commits so the
	// worker can detach without losing in-flight work.
	ctrlDrain
	// ctrlDrainOK: coordinator → worker process. Every active job the
	// draining worker participates in has committed a checkpoint epoch (or
	// none were running); it is now safe to exit.
	ctrlDrainOK
)

// maxCtrlPayload bounds a ctrl-plane JSON frame before json.Unmarshal.
// The binary hot-path decoders clamp every length field; JSON carries its
// sizes implicitly, so the only defense against a hostile length prefix
// provoking a giant allocation is refusing the frame outright. 64 MiB
// comfortably covers the largest legitimate payload (a jobResultMsg's
// record list).
const maxCtrlPayload = 64 << 20

// resumeEpochRef names one committed epoch and the commit-time checksum
// of ONE worker's snapshot in it: what the coordinator (sole MANIFEST
// owner) hands a worker to restore from.
type resumeEpochRef struct {
	Epoch int64  `json:"epoch"`
	CRC   uint32 `json:"crc"`
}

// jobStartMsg is the ctrlJobStart payload.
type jobStartMsg struct {
	Channel uint64       `json:"channel"`
	JobID   string       `json:"job_id"`
	Spec    jobspec.Spec `json:"spec"`
	// CheckpointEverySeconds carries the per-job checkpoint interval
	// (0 = off).
	CheckpointEverySeconds float64 `json:"checkpoint_every_seconds,omitempty"`
	// Resume names the worker's snapshot in the epoch every worker of the
	// attempt restores from; nil means start fresh. A worker that cannot
	// restore it fails the job instead of starting fresh beside restored
	// peers.
	Resume *resumeEpochRef `json:"resume,omitempty"`
	// Chaos is the job's fault profile, which the worker process wraps the
	// job's endpoint with (the zero profile injects nothing). The
	// coordinator runs its crash schedule.
	Chaos chaos.Profile `json:"chaos"`
}

// jobStopMsg is the ctrlJobStop payload. With Kill set the job's worker
// dies like a crashed machine — nothing flushed, no result shipped —
// instead of stopping gracefully (Job.KillWorker on a multi-process job).
// Channel names the attempt the stop or kill is for.
type jobStopMsg struct {
	Channel uint64 `json:"channel"`
	JobID   string `json:"job_id"`
	Kill    bool   `json:"kill,omitempty"`
}

// jobResultMsg is the ctrlJobResult payload.
type jobResultMsg struct {
	Channel  uint64           `json:"channel"`
	JobID    string           `json:"job_id"`
	Worker   int              `json:"worker"`
	Records  []string         `json:"records"`
	Counters metrics.Snapshot `json:"counters"`
	// ResidentLists, ResidentBytes and ResidentRows size the resident set of
	// the view the worker ran on and its core (0 on the base view); every
	// worker of a job reports the same three.
	ResidentLists int   `json:"resident_lists,omitempty"`
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	ResidentRows  int   `json:"resident_rows,omitempty"`
	// CkptErr is the worker's last checkpoint persist failure ("" = none).
	CkptErr string `json:"ckpt_err,omitempty"`
	// Gen is the sender's fencing generation; the coordinator refuses a
	// result from a generation older than the slot's current one.
	Gen int64 `json:"gen,omitempty"`
	// Err, when set, nacks the job's start: the worker process could not
	// build the job's worker, and the coordinator fails the job with it.
	Err string `json:"err,omitempty"`
}

// topologyMsg is the ctrlTopology payload: dial addresses by node index
// (workers 0..K-1, coordinator at K); "" = not yet joined. Gens carries
// each slot's current fencing generation in the same order, so every
// worker process can raise its transport fencing floor for a peer slot
// the moment a replacement claims it.
type topologyMsg struct {
	Peers []string `json:"peers"`
	Gens  []int64  `json:"gens,omitempty"`
}

// heartbeatMsg is the ctrlHeartbeat payload.
type heartbeatMsg struct {
	Gen      int64 `json:"gen"`
	Draining bool  `json:"draining,omitempty"`
}

// drainMsg is the ctrlDrain / ctrlDrainOK payload.
type drainMsg struct {
	Gen int64 `json:"gen"`
}

func encodeCtrl(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All control structs marshal by construction.
		panic(fmt.Sprintf("cluster: control encode: %v", err))
	}
	return b
}

func decodeCtrl(b []byte, v any) error {
	if len(b) > maxCtrlPayload {
		return fmt.Errorf("cluster: control decode: %d-byte frame exceeds %d-byte bound", len(b), maxCtrlPayload)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("cluster: control decode: %w", err)
	}
	return nil
}
