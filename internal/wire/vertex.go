package wire

import (
	"encoding/binary"
	"slices"

	"gminer/internal/graph"
)

// EncodeVertex appends a vertex (id, label, attrs, adjacency) to w. This is
// the payload of a pull response: the paper pulls "v with the associated
// data (e.g., Γ(v), a(v))" from remote machines (§4.2).
func EncodeVertex(w *Writer, v *graph.Vertex) {
	w.Varint(int64(v.ID))
	w.Varint(int64(v.Label))
	w.Int32Slice(v.Attrs)
	EncodeIDs(w, v.Adj)
}

// DecodeVertex reads a vertex encoded by EncodeVertex.
func DecodeVertex(r *Reader) *graph.Vertex {
	v := &graph.Vertex{
		ID:    graph.VertexID(r.Varint()),
		Label: int32(r.Varint()),
	}
	v.Attrs = r.Int32Slice()
	if adj := DecodeIDs(r); len(adj) > 0 {
		v.Adj = adj
	}
	if r.Err() != nil {
		return nil
	}
	return v
}

// idChunk is how many IDs EncodeIDs writes per buffer reservation: enough
// to amortise the capacity check, small enough that reserving the worst case
// (a 10-byte varint each) never overshoots what is written by more than a
// few hundred bytes.
const idChunk = 64

// EncodeIDs appends a slice of vertex IDs as delta zigzag varints, the exact
// byte format of Writer.Int64Slice. It runs once per pull request, task-batch
// member and pull-response adjacency list, over sorted lists whose deltas
// fit one or two bytes: the loop writes into space reserved a chunk at a
// time, with no call and no capacity check per element.
func EncodeIDs(w *Writer, ids []graph.VertexID) {
	w.Uvarint(uint64(len(ids)))
	var prev int64
	for len(ids) > 0 {
		chunk := ids[:min(len(ids), idChunk)]
		ids = ids[len(chunk):]
		w.buf = slices.Grow(w.buf, len(chunk)*binary.MaxVarintLen64)
		b := w.buf[len(w.buf):cap(w.buf)]
		n := 0
		for _, id := range chunk {
			d := int64(id) - prev
			prev = int64(id)
			ux := uint64(d<<1) ^ uint64(d>>63)
			switch {
			case ux < 1<<7:
				b[n] = byte(ux)
				n++
			case ux < 1<<14:
				b[n], b[n+1] = byte(ux)|0x80, byte(ux>>7)
				n += 2
			default:
				n += binary.PutUvarint(b[n:], ux)
			}
		}
		w.buf = w.buf[:len(w.buf)+n]
	}
}

// DecodeIDs reads a slice written by EncodeIDs, straight off the payload:
// one- and two-byte deltas are decoded in line, anything longer — and
// anything truncated or overlong — goes through binary.Uvarint, which fails
// closed. It accepts exactly what a loop of Reader.Varint accepts.
func DecodeIDs(r *Reader) []graph.VertexID {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Remaining()) { // each element needs >=1 byte
		r.fail()
		return nil
	}
	ids := make([]graph.VertexID, n)
	buf, pos := r.buf, r.pos
	var prev int64
	for i := range ids {
		var ux uint64
		switch {
		case pos < len(buf) && buf[pos] < 0x80:
			ux = uint64(buf[pos])
			pos++
		case pos+1 < len(buf) && buf[pos+1] < 0x80:
			ux = uint64(buf[pos]&0x7f) | uint64(buf[pos+1])<<7
			pos += 2
		default:
			x, k := binary.Uvarint(buf[pos:])
			if k <= 0 {
				r.pos = pos
				r.fail()
				return nil
			}
			ux = x
			pos += k
		}
		prev += int64(ux>>1) ^ -int64(ux&1)
		ids[i] = graph.VertexID(prev)
	}
	r.pos = pos
	return ids
}
