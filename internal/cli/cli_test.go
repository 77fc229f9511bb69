package cli

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gminer/internal/gen"
	"gminer/internal/graph"
)

// TestLoadGraph: every format a binary accepts round-trips through the
// loader; an unknown format, and neither a file nor a preset, are errors.
func TestLoadGraph(t *testing.T) {
	g, name, err := LoadGraph("", "adj", "dblp-s", 0.02)
	if err != nil || name != "dblp-s" || g.NumEdges() == 0 {
		t.Fatalf("preset: %v, %q, %v", g, name, err)
	}
	dir := t.TempDir()
	for _, format := range []string{"adj", "edges", "bin"} {
		path := filepath.Join(dir, "g."+format)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteGraph(f, g, format); err != nil {
			t.Fatal(err)
		}
		f.Close()
		back, name, err := LoadGraph(path, format, "ignored-when-a-path-is-given", 1)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if name != path || back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: %q, V %d/%d, E %d/%d", format, name,
				back.NumVertices(), g.NumVertices(), back.NumEdges(), g.NumEdges())
		}
		g.ForEach(func(v *graph.Vertex) bool {
			if w := back.Vertex(v.ID); w == nil || !slices.Equal(v.Adj, w.Adj) {
				t.Fatalf("%s: vertex %d's adjacency did not round-trip", format, v.ID)
			}
			return true
		})
	}
	for _, bad := range []struct{ path, format, preset string }{
		{filepath.Join(dir, "g.adj"), "csv", ""},
		{filepath.Join(dir, "g.adj"), "", ""},
		{"", "adj", ""},
	} {
		if _, _, err := LoadGraph(bad.path, bad.format, bad.preset, 1); err == nil {
			t.Errorf("LoadGraph(%q, %q, %q) accepted", bad.path, bad.format, bad.preset)
		}
	}
	if err := WriteGraph(os.Stdout, g, "csv"); err == nil {
		t.Error("WriteGraph accepted an unknown format")
	}
}

// TestPrepareResident: a resident graph carries gm's labels and cd's
// attributes, and two preparations of one input agree, so a coordinator
// and its workers compute the same fingerprint.
func TestPrepareResident(t *testing.T) {
	a := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 600, Seed: 3})
	b := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 600, Seed: 3})
	PrepareResident(a, 5)
	PrepareResident(b, 5)
	if !a.Labeled() || !a.Attributed() {
		t.Fatalf("labeled %v, attributed %v", a.Labeled(), a.Attributed())
	}
	a.ForEach(func(v *graph.Vertex) bool {
		w := b.Vertex(v.ID)
		if v.Label != w.Label || !slices.Equal(v.Attrs, w.Attrs) || v.Label < 0 || v.Label >= 5 {
			t.Fatalf("vertex %d: label %d/%d, attrs %v/%v", v.ID, v.Label, w.Label, v.Attrs, w.Attrs)
		}
		return true
	})
}
