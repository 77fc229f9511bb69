// Package cluster implements the G-Miner runtime (§5.1, Figure 4): a
// master coordinating K workers, each running the task pipeline of §4.3
// (task store → candidate retriever → task executor), with task stealing
// (§6.2), periodic aggregator synchronization, checkpoint-based fault
// tolerance (§7) and distributed termination detection.
package cluster

import (
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/wire"
)

// Message types of the cluster protocol. Workers are nodes 0..K-1; the
// master is node K.
const (
	// msgPullReq: worker → worker. Payload: vertex ID list. The request
	// listener of the owning worker responds with msgPullResp.
	msgPullReq uint8 = iota + 1
	// msgPullResp: worker → worker. Payload: count + encoded vertices
	// (missing vertices are encoded with a tombstone flag).
	msgPullResp
	// msgProgress: worker → master. Periodic progress report feeding the
	// master's progress table (termination, stealing, aggregation).
	msgProgress
	// msgStealReq: worker → master. "REQ": the sender is idle and wants
	// more tasks.
	msgStealReq
	// msgMigrate: master → worker. "MIGRATE": migrate up to Tnum tasks to
	// the thief named in the payload.
	msgMigrate
	// msgTasks: worker → worker. Payload: encoded migrated tasks.
	msgTasks
	// msgNoTask: worker → worker. "No_Task": the victim had nothing to
	// give; the thief backs off.
	msgNoTask
	// msgAggGlobal: master → worker. Broadcast of the merged global
	// aggregator value.
	msgAggGlobal
	// msgCheckpoint: master → worker. Take a checkpoint at the epoch in
	// the payload.
	msgCheckpointReq
	// msgCheckpointDone: worker → master. Payload: ckptAck — the epoch,
	// the CRC32C of the persisted snapshot payload (what the master
	// records in the MANIFEST at commit time) and an OK flag. A negative
	// ack (snapshot or persist failure, quiesce timeout) makes the master
	// abandon the epoch immediately instead of waiting out its timeout.
	msgCheckpointDone
	// msgStop: master → worker. Job finished; shut down the pipeline.
	msgStop
	// msgProbe: master → worker. Termination probe; payload: the wave number
	// (encodeEpoch). The worker answers at once with a msgProgress echoing
	// the wave, and echoes it in every later report.
	msgProbe
)

// progressReport is the worker → master report (§5.1: "a progress reporter
// that sends its local progress to the master periodically"), also sent the
// moment a worker becomes idle and in answer to a msgProbe.
type progressReport struct {
	Worker    int
	Inflight  int64 // alive tasks owned by this worker (store+queues+active)
	StoreSize int64 // inactive tasks in the task store (steal candidates)
	TasksSent int64 // cumulative tasks migrated out
	TasksRecv int64 // cumulative tasks migrated in
	Activity  int64 // monotonically increasing on any task intake/death
	SeedsDone bool
	Results   int64
	AggSet    bool   // AggPartial follows
	AggBytes  []byte // encoded aggregator partial
	Wave      int64  // newest msgProbe wave the worker had seen when it built this
}

func encodeProgress(p *progressReport) []byte {
	w := wire.NewWriter(64)
	encodeProgressInto(w, p)
	return w.Bytes()
}

func encodeProgressInto(w *wire.Writer, p *progressReport) {
	w.Int(p.Worker)
	w.Varint(p.Inflight)
	w.Varint(p.StoreSize)
	w.Varint(p.TasksSent)
	w.Varint(p.TasksRecv)
	w.Varint(p.Activity)
	w.Bool(p.SeedsDone)
	w.Varint(p.Results)
	w.Bool(p.AggSet)
	if p.AggSet {
		w.BytesField(p.AggBytes)
	}
	w.Varint(p.Wave)
}

func decodeProgress(b []byte) (*progressReport, error) {
	r := wire.NewReader(b)
	p := &progressReport{}
	p.Worker = r.Int()
	p.Inflight = r.Varint()
	p.StoreSize = r.Varint()
	p.TasksSent = r.Varint()
	p.TasksRecv = r.Varint()
	p.Activity = r.Varint()
	p.SeedsDone = r.Bool()
	p.Results = r.Varint()
	p.AggSet = r.Bool()
	if p.AggSet {
		p.AggBytes = r.BytesField()
	}
	p.Wave = r.Varint()
	return p, r.Err()
}

// encodePullReq / decodePullReq carry the vertex IDs to pull.
func encodePullReq(ids []graph.VertexID) []byte {
	w := wire.NewWriter(16 + 4*len(ids))
	encodePullReqInto(w, ids)
	return w.Bytes()
}

func encodePullReqInto(w *wire.Writer, ids []graph.VertexID) {
	wire.EncodeIDs(w, ids)
}

func decodePullReq(b []byte) ([]graph.VertexID, error) {
	r := wire.NewReader(b)
	ids := wire.DecodeIDs(r)
	return ids, r.Err()
}

// encodePullResp encodes the pulled vertices. Vertices missing from the
// owner's table are encoded as tombstones: present-flag false + bare ID,
// so the requester can unblock waiting tasks (the candidate resolves to
// nil at update time).
func encodePullResp(found []*graph.Vertex, missing []graph.VertexID) []byte {
	w := wire.NewWriter(256)
	encodePullRespInto(w, found, missing)
	return w.Bytes()
}

func encodePullRespInto(w *wire.Writer, found []*graph.Vertex, missing []graph.VertexID) {
	w.Uvarint(uint64(len(found) + len(missing)))
	for _, v := range found {
		w.Bool(true)
		wire.EncodeVertex(w, v)
	}
	for _, id := range missing {
		w.Bool(false)
		w.Varint(int64(id))
	}
}

// pulledVertex is one entry of a pull response.
type pulledVertex struct {
	ID      graph.VertexID
	V       *graph.Vertex // nil for tombstones
	Present bool
}

func decodePullResp(b []byte) ([]pulledVertex, error) {
	r := wire.NewReader(b)
	// Each entry is at least a present flag plus one varint byte; Count
	// rejects length prefixes the payload cannot possibly satisfy.
	n := r.Count(2)
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := make([]pulledVertex, 0, n)
	for i := 0; i < n; i++ {
		if r.Bool() {
			v := wire.DecodeVertex(r)
			if v == nil {
				break
			}
			out = append(out, pulledVertex{ID: v.ID, V: v, Present: true})
		} else {
			out = append(out, pulledVertex{ID: graph.VertexID(r.Varint())})
		}
	}
	return out, r.Err()
}

// encodeTasks serializes a migration batch.
func encodeTasks(tasks []*core.Task, codec core.ContextCodec) []byte {
	w := wire.NewWriter(256 * len(tasks))
	encodeTasksInto(w, tasks, codec)
	return w.Bytes()
}

func encodeTasksInto(w *wire.Writer, tasks []*core.Task, codec core.ContextCodec) {
	w.Uvarint(uint64(len(tasks)))
	for _, t := range tasks {
		core.EncodeTask(w, t, codec)
	}
}

func decodeTasks(b []byte, codec core.ContextCodec) ([]*core.Task, error) {
	r := wire.NewReader(b)
	// An encoded task is ≥4 bytes (ID, round, subgraph and list length
	// prefixes); reject counts the payload cannot hold.
	n := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := make([]*core.Task, 0, n)
	for i := 0; i < n; i++ {
		t, err := core.DecodeTask(r, codec)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, r.Err()
}

// encodeMigrate names the thief and the batch size Tnum.
func encodeMigrate(thief, tnum int) []byte {
	w := wire.NewWriter(8)
	w.Int(thief)
	w.Int(tnum)
	return w.Bytes()
}

func decodeMigrate(b []byte) (thief, tnum int, err error) {
	r := wire.NewReader(b)
	thief = r.Int()
	tnum = r.Int()
	return thief, tnum, r.Err()
}

func encodeEpoch(epoch int64) []byte {
	w := wire.NewWriter(8)
	w.Varint(epoch)
	return w.Bytes()
}

func decodeEpoch(b []byte) (int64, error) {
	r := wire.NewReader(b)
	e := r.Varint()
	return e, r.Err()
}

// ckptAck is the msgCheckpointDone payload.
type ckptAck struct {
	Epoch int64
	CRC   uint32 // checksum of the persisted snapshot payload; 0 when !OK
	OK    bool
	// Gen is the acking worker's fencing generation (0 = unfenced
	// single-process mode). The master drops acks from a fenced-out
	// generation, and the snapshot sink refuses to commit them: a zombie
	// must not be able to vouch for an epoch its replacement did not write.
	Gen int64
}

func encodeCkptAck(epoch int64, crc uint32, ok bool, gen int64) []byte {
	w := wire.NewWriter(24)
	w.Varint(epoch)
	w.Uvarint(uint64(crc))
	w.Bool(ok)
	w.Varint(gen)
	return w.Bytes()
}

func decodeCkptAck(b []byte) (ckptAck, error) {
	r := wire.NewReader(b)
	a := ckptAck{}
	a.Epoch = r.Varint()
	a.CRC = uint32(r.Uvarint())
	a.OK = r.Bool()
	a.Gen = r.Varint()
	return a, r.Err()
}
