package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Freeze numbers vertices in ascending external-ID order, negative IDs
// included: an edge to vertex −1 is kept at both ends.
func TestFreezeKeepsNegativeIDs(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("-1 5\n0 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[VertexID]extVertex{
		-1: {NoLabel, "[]", []VertexID{5}},
		0:  {NoLabel, "[]", []VertexID{5}},
		5:  {NoLabel, "[]", []VertexID{-1, 0}},
	}
	if got := external(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, want %v", got, want)
	}
	for i, ext := range []VertexID{-1, 0, 5} {
		if id, ok := g.Lookup(ext); !ok || id != VertexID(i) || g.External(id) != ext {
			t.Fatalf("external ID %d has internal ID %d (%v), want %d", ext, id, ok, i)
		}
	}
}

// binaryFile is a GMG1 file: the magic, then each field as a uvarint (u) or
// a zigzag varint (z).
func binaryFile(fields ...any) []byte {
	buf := append([]byte(nil), binaryMagic[:]...)
	for _, f := range fields {
		switch x := f.(type) {
		case u:
			buf = binary.AppendUvarint(buf, uint64(x))
		case z:
			buf = binary.AppendVarint(buf, int64(x))
		}
	}
	return buf
}

type (
	u uint64
	z int64
)

// ReadBinary trusts no size a file declares, and loads only graphs that
// Validate: each of these files fails, having allocated well under a MiB.
func TestReadBinaryRejectsWhatItCannotTrust(t *testing.T) {
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"one vertex of degree 2^29", binaryFile(u(1), z(0), z(0), u(0), u(1<<29))},
		{"2^34 vertices", binaryFile(u(1 << 34))},
		{"2^24 attributes", binaryFile(u(1), z(0), z(0), u(1<<24))},
		{"dangling neighbour", binaryFile(u(1), z(0), z(0), u(0), u(1), z(7))},
		{"one-sided edge", binaryFile(u(2), z(0), z(0), u(0), u(1), z(1), z(1), z(0), u(0), u(0))},
		{"label past int32", binaryFile(u(1), z(0), z(1<<31), u(0), u(0))},
		{"attribute past int32", binaryFile(u(1), z(0), z(0), u(1), z(-1<<31-1), u(0))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadBinary(bytes.NewReader(tc.file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: loaded %d vertices", tc.name, g.NumVertices())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: %d-byte file allocated %d bytes", tc.name, len(tc.file), alloc)
		}
	}
	if n := len(binaryFile(u(1), z(0), z(0), u(0), u(1<<29))); n != 13 {
		t.Fatalf("the degree file is %d bytes, want 13", n)
	}
}

// fuzzReader holds one graph reader to its contract on whatever bytes the
// fuzzer draws: it never panics; a graph it loads is valid; and the matching
// writer's output reads back as the same external IDs, labels, attributes
// and edges.
func fuzzReader(f *testing.F, read func(io.Reader) (*Graph, error), write func(io.Writer, *Graph) error, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := read(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("loaded an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := write(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := read(&buf)
		if err != nil {
			t.Fatalf("reading back what the writer wrote: %v\n%q", err, buf.Bytes())
		}
		if a, b := external(g), external(back); !reflect.DeepEqual(a, b) {
			t.Fatalf("write→read changed the graph:\n%v\n%v", a, b)
		}
	})
}

// A strided file: IDs ×1009 + 7, far apart.
const stridedText = "7 1016 2025\n1016 2025 3034\n3034 7\n"

func FuzzReadText(f *testing.F) {
	fuzzReader(f, ReadText, WriteText,
		[]byte("-1 5\n0 5\n"), []byte(stridedText),
		[]byte("1\t4\t3,1\t2 3\n2\t-1\t-\t3\n# c\n9\n"))
}

func FuzzReadEdgeList(f *testing.F) {
	fuzzReader(f, ReadEdgeList, WriteEdgeList,
		[]byte("-1 5\n0 5\n"), []byte(stridedText), []byte("% k\n1 2 0.5\n2 2\n"))
}

func FuzzReadBinary(f *testing.F) {
	g, err := ReadText(strings.NewReader("1\t4\t3,-1\t2 1016\n2\t0\t-\t\n"))
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := WriteBinary(&valid, g); err != nil {
		f.Fatal(err)
	}
	fuzzReader(f, ReadBinary, WriteBinary, valid.Bytes(),
		binaryFile(u(1), z(0), z(0), u(0), u(1<<29)),
		binaryFile(u(2), z(-1), z(0), u(0), u(1), z(5), z(5), z(0), u(0), u(1), z(-1)))
}
