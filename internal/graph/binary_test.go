package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 30000)
	g.SetLabel(1, 5)
	g.SetAttrs(2, []int32{7, -3, 9})
	g.AddVertex(99) // isolated
	g.Freeze()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
	if vertexOf(g2, 1).Label != 5 || !reflect.DeepEqual(vertexOf(g2, 2).Attrs, []int32{7, -3, 9}) {
		t.Fatal("labels/attrs lost")
	}
	if !g2.Frozen() {
		t.Fatal("loaded graph not frozen")
	}
}

func TestBinaryRejectsUnfrozen(t *testing.T) {
	g := New(1)
	g.AddEdge(1, 2)
	if err := WriteBinary(&bytes.Buffer{}, g); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := buildTriangle()
	var buf bytes.Buffer
	_ = WriteBinary(&buf, g)
	full := buf.Bytes()
	for cut := 0; cut < len(full)-1; cut += 3 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("cut=%d: truncated input accepted", cut)
		}
	}
}

func TestBinaryFile(t *testing.T) {
	g := buildTriangle()
	path := t.TempDir() + "/g.bin"
	if err := SaveBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(edges []uint16, labelSeed uint8) bool {
		g := New(32)
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(VertexID(edges[i]%64), VertexID(edges[i+1]%64))
		}
		g.ForEach(func(v *Vertex) bool {
			v.Label = int32(labelSeed) % 7
			return true
		})
		g.Freeze()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil || g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		return reflect.DeepEqual(external(g), external(g2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
