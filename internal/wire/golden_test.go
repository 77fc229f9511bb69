package wire

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gminer/internal/graph"
)

// refEncodeIDs and refDecodeIDs are the ID-list codec as it was before the
// in-line loops: one Writer.Varint / Reader.Varint call per element. They
// define the format; EncodeIDs and DecodeIDs must be indistinguishable.
func refEncodeIDs(w *Writer, ids []graph.VertexID) {
	w.Uvarint(uint64(len(ids)))
	var prev int64
	for _, id := range ids {
		w.Varint(int64(id) - prev)
		prev = int64(id)
	}
}

func refDecodeIDs(r *Reader) []graph.VertexID {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail()
		return nil
	}
	ids := make([]graph.VertexID, n)
	var prev int64
	for i := range ids {
		prev += r.Varint()
		ids[i] = graph.VertexID(prev)
	}
	if r.Err() != nil {
		return nil
	}
	return ids
}

func goldenIDLists() [][]graph.VertexID {
	rng := rand.New(rand.NewSource(29))
	lists := [][]graph.VertexID{
		nil,
		{0},
		{63, 64, 127, 128},                  // around the 1-byte zigzag edge
		{8191, 8192, 16383, 16384, 1 << 21}, // around the 2-byte edge
		{5, 3, 5, 1},                        // unsorted: negative deltas
		{math.MaxInt64, math.MinInt64, -1, 0, math.MaxInt64},
	}
	for _, n := range []int{1, idChunk - 1, idChunk, idChunk + 1, 5 * idChunk} {
		sorted := make([]graph.VertexID, n)
		id := graph.VertexID(rng.Intn(1 << 20))
		for i := range sorted {
			id += graph.VertexID(1 + rng.Intn(1<<rng.Intn(16)))
			sorted[i] = id
		}
		lists = append(lists, sorted)
		wild := make([]graph.VertexID, n)
		for i := range wild {
			wild[i] = graph.VertexID(rng.Uint64())
		}
		lists = append(lists, wild)
	}
	return lists
}

// TestGoldenIDBytes pins the ID-list format: the new encoder writes the old
// encoder's bytes (after whatever the writer already held), each decoder
// reads the other's output, and both leave the reader at the same offset.
func TestGoldenIDBytes(t *testing.T) {
	for i, ids := range goldenIDLists() {
		want, got := NewWriter(0), NewWriter(0)
		want.String("prefix")
		got.String("prefix")
		refEncodeIDs(want, ids)
		EncodeIDs(got, ids)
		want.Byte(0xAB)
		got.Byte(0xAB)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("list %d: encoded bytes differ\n got %x\nwant %x", i, got.Bytes(), want.Bytes())
		}
		for name, decode := range map[string]func(*Reader) []graph.VertexID{"new": DecodeIDs, "old": refDecodeIDs} {
			r := NewReader(got.Bytes())
			if r.String() != "prefix" {
				t.Fatal("prefix")
			}
			back := decode(r)
			if r.Err() != nil || !slices.Equal(back, ids) || r.Byte() != 0xAB || r.Remaining() != 0 {
				t.Fatalf("list %d: %s decoder read %v (err %v), want %v", i, name, back, r.Err(), ids)
			}
		}
	}
}

// TestGoldenIDDecodeFailsClosed feeds both decoders every truncation of the
// golden payloads, overlong varints and counts the payload cannot hold: they
// must agree on the IDs, on whether the reader failed, and on where it stands.
func TestGoldenIDDecodeFailsClosed(t *testing.T) {
	inputs := [][]byte{
		{3, 0x80},          // element cut inside a 2-byte varint
		{2, 0x80, 0x80},    // continuation bits to the end
		{1, 0x80, 0x00},    // non-minimal zero: accepted by both
		{0xff, 0xff, 0x7f}, // count far beyond the payload
		append([]byte{1}, bytes.Repeat([]byte{0xff}, 10)...), // 64-bit overflow
		append([]byte{1}, bytes.Repeat([]byte{0x80}, 11)...), // overlong
	}
	for _, ids := range goldenIDLists() {
		w := NewWriter(0)
		EncodeIDs(w, ids)
		for cut := 0; cut < w.Len(); cut += 1 + cut/8 {
			inputs = append(inputs, w.Bytes()[:cut])
		}
	}
	for _, in := range inputs {
		rn, ro := NewReader(in), NewReader(in)
		got, want := DecodeIDs(rn), refDecodeIDs(ro)
		if (rn.Err() == nil) != (ro.Err() == nil) || !slices.Equal(got, want) {
			t.Fatalf("input %x: new (%v, err %v), old (%v, err %v)", in, got, rn.Err(), want, ro.Err())
		}
		if rn.Err() != nil && got != nil {
			t.Fatalf("input %x: IDs returned beside an error", in)
		}
		if rn.Err() == nil && rn.Remaining() != ro.Remaining() {
			t.Fatalf("input %x: readers stand %d and %d bytes from the end", in, rn.Remaining(), ro.Remaining())
		}
	}
}

// FuzzGoldenIDDecode holds the new decoder to the old one on arbitrary bytes.
func FuzzGoldenIDDecode(f *testing.F) {
	w := NewWriter(32)
	EncodeIDs(w, []graph.VertexID{3, 1, 4, 1 << 40, 5})
	f.Add(w.Bytes())
	f.Add([]byte{2, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		rn, ro := NewReader(data), NewReader(data)
		got, want := DecodeIDs(rn), refDecodeIDs(ro)
		if (rn.Err() == nil) != (ro.Err() == nil) || !slices.Equal(got, want) {
			t.Fatalf("new (%v, err %v), old (%v, err %v)", got, rn.Err(), want, ro.Err())
		}
	})
}

func BenchmarkDecodeIDs(b *testing.B) {
	ids := make([]graph.VertexID, 256)
	for i := range ids {
		ids[i] = graph.VertexID(i * 17)
	}
	w := NewWriter(4096)
	EncodeIDs(w, ids)
	buf := w.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(DecodeIDs(NewReader(buf))) != len(ids) {
			b.Fatal("decode failed")
		}
	}
}
