package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := "# SNAP-style comment\n% konect-style comment\n1 2\n2 3\n1 3\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListExtraColumns(t *testing.T) {
	// Weighted edge lists carry a third column; it is ignored.
	g, err := ReadEdgeList(strings.NewReader("1 2 0.5\n2 3 1.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("E=%d", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"1\n", "a b\n", "1 b\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New(8)
	g.AddEdge(1, 2)
	g.AddEdge(2, 5)
	g.AddEdge(5, 9)
	g.AddEdge(1, 9)
	g.Freeze()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("round trip: V %d/%d E %d/%d",
			g.NumVertices(), g2.NumVertices(), g.NumEdges(), g2.NumEdges())
	}
	assertGraphsEqual(t, g, g2)
}

func TestEdgeListEachEdgeOnce(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 2)
	g.Freeze()
	var buf bytes.Buffer
	_ = WriteEdgeList(&buf, g)
	if got := strings.TrimSpace(buf.String()); got != "1 2" {
		t.Fatalf("got %q", got)
	}
}
