package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func buildTriangle() *Graph {
	g := New(3)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	g.Freeze()
	return g
}

func TestAddEdgeSymmetry(t *testing.T) {
	g := buildTriangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g := New(1)
	g.AddEdge(5, 5)
	g.AddEdge(5, 6)
	g.Freeze()
	if vertexOf(g, 5).Degree() != 1 {
		t.Fatalf("self loop not ignored: %v", vertexOf(g, 5).Adj)
	}
}

func TestDuplicateEdgesDeduped(t *testing.T) {
	g := New(2)
	for i := 0; i < 5; i++ {
		g.AddEdge(1, 2)
	}
	g.Freeze()
	if g.NumEdges() != 1 {
		t.Fatalf("got %d edges, want 1", g.NumEdges())
	}
}

func TestFreezeSortsAdjacency(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 9)
	g.AddEdge(1, 3)
	g.AddEdge(1, 7)
	g.Freeze()
	adj := vertexOf(g, 1).Adj
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
}

func TestMutateAfterFreezePanics(t *testing.T) {
	g := buildTriangle()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on AddVertex after Freeze")
		}
	}()
	g.AddVertex(99)
}

func TestHasNeighbor(t *testing.T) {
	g := buildTriangle()
	v := vertexOf(g, 1)
	if !v.HasNeighbor(vertexOf(g, 2).ID) || !v.HasNeighbor(vertexOf(g, 3).ID) || v.HasNeighbor(v.ID) {
		t.Fatalf("HasNeighbor wrong: %v", v.Adj)
	}
}

func TestStats(t *testing.T) {
	g := buildTriangle()
	s := ComputeStats("tri", g)
	if s.V != 3 || s.E != 3 || s.MaxDeg != 2 || s.AvgDeg != 2.0 {
		t.Fatalf("bad stats: %+v", s)
	}
	if !strings.Contains(s.String(), "tri") {
		t.Fatalf("stats string: %q", s.String())
	}
}

func TestLabelsAndAttrs(t *testing.T) {
	g := New(2)
	g.SetLabel(1, 4)
	g.SetAttrs(1, []int32{3, 1, 4})
	g.AddEdge(1, 2)
	g.Freeze()
	v := vertexOf(g, 1)
	if v.Label != 4 || !reflect.DeepEqual(v.Attrs, []int32{3, 1, 4}) {
		t.Fatalf("label/attrs lost: %+v", v)
	}
	if !g.Labeled() || !g.Attributed() || g.NumAttrs() != 5 {
		t.Fatalf("labeled=%v attributed=%v numattrs=%d", g.Labeled(), g.Attributed(), g.NumAttrs())
	}
}

func TestVertexClone(t *testing.T) {
	v := &Vertex{ID: 1, Adj: []VertexID{2, 3}, Label: 7, Attrs: []int32{1}}
	c := v.Clone()
	c.Adj[0] = 99
	c.Attrs[0] = 99
	if v.Adj[0] != 2 || v.Attrs[0] != 1 {
		t.Fatal("clone aliases original storage")
	}
}

func TestTextRoundTripPlain(t *testing.T) {
	g := buildTriangle()
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestTextRoundTripAttributed(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.SetLabel(1, 0)
	g.SetLabel(2, 1)
	g.SetLabel(3, 2)
	g.SetAttrs(2, []int32{5, 9})
	g.Freeze()
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
	if vertexOf(g2, 2).Attrs[1] != 9 {
		t.Fatal("attrs lost in round trip")
	}
}

func TestReadTextComments(t *testing.T) {
	in := "# a comment\n1 2 3\n\n2 3\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestReadTextBadInput(t *testing.T) {
	for _, in := range []string{"abc def", "1\tx\t-\t2", "1\t0\tnope\t2"} {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestLoadSaveFile(t *testing.T) {
	g := buildTriangle()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

// vertexOf returns g's vertex with external ID ext, or nil.
func vertexOf(g *Graph, ext VertexID) *Vertex {
	if id, ok := g.Lookup(ext); ok {
		return g.Vertex(id)
	}
	return nil
}

// extVertex is what a graph file says of one vertex: its label, attributes
// and neighbours' external IDs, ascending.
type extVertex struct {
	Label int32
	Attrs string
	Adj   []VertexID
}

// external describes g by external IDs alone, as its files do.
func external(g *Graph) map[VertexID]extVertex {
	out := make(map[VertexID]extVertex, g.NumVertices())
	g.ForEach(func(v *Vertex) bool {
		adj := make([]VertexID, len(v.Adj))
		for i, u := range v.Adj {
			adj[i] = g.External(u)
		}
		slices.Sort(adj)
		out[g.External(v.ID)] = extVertex{v.Label, fmt.Sprint(v.Attrs), adj}
		return true
	})
	return out
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: V %d/%d E %d/%d",
			a.NumVertices(), b.NumVertices(), a.NumEdges(), b.NumEdges())
	}
	if ea, eb := external(a), external(b); !reflect.DeepEqual(ea, eb) {
		t.Fatalf("graphs differ by external ID:\n%v\n%v", ea, eb)
	}
}

// Property: any random graph survives a text round trip unchanged.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8, m uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(int(n) + 2)
		for i := 0; i < int(m)+1; i++ {
			u := VertexID(rng.Intn(int(n) + 2))
			w := VertexID(rng.Intn(int(n) + 2))
			g.AddEdge(u, w)
		}
		g.AddVertex(VertexID(int(n) + 5)) // isolated vertex
		g.Freeze()
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil {
			return false
		}
		if g.NumVertices() != g2.NumVertices() || g.NumEdges() != g2.NumEdges() {
			return false
		}
		return reflect.DeepEqual(external(g), external(g2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Freeze yields a valid graph for arbitrary edge multisets.
func TestQuickValidateAfterFreeze(t *testing.T) {
	f := func(edges []uint16) bool {
		g := New(16)
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(VertexID(edges[i]%64), VertexID(edges[i+1]%64))
		}
		g.Freeze()
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
