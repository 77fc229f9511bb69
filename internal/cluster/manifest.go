package cluster

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/wire"
)

// Durable checkpoint format (§7 hardening). A worker's snapshot is framed
// on disk as
//
//	"GMCK1" | uvarint payload length | payload | crc32c(payload), LE
//
// so a torn write (crash mid-checkpoint, disk rot) is detected before the
// payload ever reaches decodeSnapshot. The master's MANIFEST uses the same
// frame with its own magic and records which epoch is committed: an epoch
// exists durably only once every worker's file landed (fsync'd) and the
// master wrote the manifest naming it. Restore never trusts a file the
// manifest does not vouch for.

const (
	snapshotMagic = "GMCK1"
	manifestMagic = "GMMF1"
	// manifestName is the committed-epoch record inside the checkpoint
	// directory.
	manifestName = "MANIFEST"
	// noEpoch marks "no committed epoch" in manifest fields.
	noEpoch = int64(-1)
)

// castagnoli is the CRC32C polynomial (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// frame wraps payload in magic | length | payload | crc32c.
func frame(magic string, payload []byte) []byte {
	b := make([]byte, 0, len(magic)+10+len(payload)+4)
	b = append(b, magic...)
	w := wire.NewWriter(10)
	w.Uvarint(uint64(len(payload)))
	b = append(b, w.Bytes()...)
	b = append(b, payload...)
	crc := checksum(payload)
	return append(b, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// unframe validates magic, length and checksum and returns the payload and
// its CRC32C. Any truncation, trailing garbage or checksum mismatch is an
// error — the caller falls back to an older epoch instead of decoding
// garbage.
func unframe(magic string, b []byte) ([]byte, uint32, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("checkpoint: bad magic (want %s)", magic)
	}
	r := wire.NewReader(b[len(magic):])
	n := r.Uvarint()
	if r.Err() != nil || uint64(r.Remaining()) < n+4 {
		return nil, 0, fmt.Errorf("checkpoint: truncated frame")
	}
	start := len(b) - r.Remaining()
	payload := b[start : start+int(n)]
	tail := b[start+int(n):]
	if len(tail) != 4 {
		return nil, 0, fmt.Errorf("checkpoint: %d trailing bytes after frame", len(tail)-4)
	}
	crc := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if got := checksum(payload); got != crc {
		return nil, 0, fmt.Errorf("checkpoint: checksum mismatch (stored %08x, computed %08x)", crc, got)
	}
	return payload, crc, nil
}

// manifest is the master's committed-epoch record: the newest epoch whose
// every worker file is durable, the previous committed epoch retained as
// the fallback, and the per-worker payload checksums of both (restore
// cross-checks the file CRC against the manifest, so a stale file from an
// abandoned epoch cannot impersonate a committed one).
type manifest struct {
	// Fingerprint identifies the job: graph structure, algorithm, worker
	// count and partitioner. Resume refuses a manifest whose fingerprint
	// does not match the job being launched.
	Fingerprint uint64
	Workers     int
	Epoch       int64
	EpochCRCs   []uint32
	PrevEpoch   int64 // noEpoch when only one epoch has ever committed
	PrevCRCs    []uint32
}

// epochs returns the committed epochs newest-first.
func (m *manifest) epochs() []int64 {
	if m == nil {
		return nil
	}
	out := []int64{m.Epoch}
	if m.PrevEpoch != noEpoch {
		out = append(out, m.PrevEpoch)
	}
	return out
}

// crcsFor returns the per-worker checksums of a committed epoch, or nil if
// the manifest does not vouch for that epoch.
func (m *manifest) crcsFor(epoch int64) []uint32 {
	switch {
	case m == nil:
		return nil
	case epoch == m.Epoch:
		return m.EpochCRCs
	case epoch == m.PrevEpoch:
		return m.PrevCRCs
	}
	return nil
}

func encodeManifest(m *manifest) []byte {
	w := wire.NewWriter(64 + 8*len(m.EpochCRCs))
	w.Uvarint(m.Fingerprint)
	w.Int(m.Workers)
	w.Varint(m.Epoch)
	w.Uvarint(uint64(len(m.EpochCRCs)))
	for _, c := range m.EpochCRCs {
		w.Uvarint(uint64(c))
	}
	w.Varint(m.PrevEpoch)
	w.Uvarint(uint64(len(m.PrevCRCs)))
	for _, c := range m.PrevCRCs {
		w.Uvarint(uint64(c))
	}
	return frame(manifestMagic, w.Bytes())
}

func decodeManifest(b []byte) (*manifest, error) {
	payload, _, err := unframe(manifestMagic, b)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(payload)
	m := &manifest{}
	m.Fingerprint = r.Uvarint()
	m.Workers = r.Int()
	m.Epoch = r.Varint()
	n := r.Count(1)
	m.EpochCRCs = make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		m.EpochCRCs = append(m.EpochCRCs, uint32(r.Uvarint()))
	}
	m.PrevEpoch = r.Varint()
	n = r.Count(1)
	m.PrevCRCs = make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		m.PrevCRCs = append(m.PrevCRCs, uint32(r.Uvarint()))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing manifest bytes", r.Remaining())
	}
	if m.Workers <= 0 || len(m.EpochCRCs) != m.Workers {
		return nil, fmt.Errorf("checkpoint: manifest names %d workers, carries %d checksums",
			m.Workers, len(m.EpochCRCs))
	}
	if m.PrevEpoch != noEpoch && len(m.PrevCRCs) != m.Workers {
		return nil, fmt.Errorf("checkpoint: manifest previous epoch carries %d checksums, want %d",
			len(m.PrevCRCs), m.Workers)
	}
	if m.PrevEpoch != noEpoch && m.PrevEpoch >= m.Epoch {
		return nil, fmt.Errorf("checkpoint: manifest epochs out of order (%d then %d)", m.PrevEpoch, m.Epoch)
	}
	return m, nil
}

// jobFingerprint hashes everything a checkpoint's validity depends on: the
// algorithm and what its plan mines — G⁺ or the undirected graph, with or
// without the label column, which decide the seeds and the task contexts a
// snapshot holds — the worker count, the partitioner (the vertex→worker
// assignment must reproduce exactly on resume), the graph epoch (a
// dynamic session's graph mutates in place; epoch N snapshots must never
// restore against epoch M structure) and the graph structure itself.
// Two jobs with the same fingerprint generate the same seed tasks in the
// same partitions, so one's snapshots are restorable by the other.
func jobFingerprint(g *graph.Graph, algoName string, p core.Plan, cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%t|%t|%d|%T|%d|", algoName, p.Oriented != nil, p.Labels != nil, cfg.Workers, cfg.Partitioner, cfg.GraphEpoch)
	var fold uint64
	g.ForEach(func(v *graph.Vertex) bool {
		fold = fold*0x100000001b3 + uint64(v.ID)*2654435761 + uint64(len(v.Adj))
		return true
	})
	fmt.Fprintf(h, "%d|%d|%t|%t|%x", g.NumVertices(), g.NumEdges(), g.Labeled(), g.Attributed(), fold)
	return h.Sum64()
}
