package dyngraph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gminer/internal/graph"
)

func i32(v int32) *int32 { return &v }

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	g.Freeze()
	return g
}

func TestDecodeBatch(t *testing.T) {
	cases := []struct {
		name, in string
		wantErr  string
		wantOps  int
	}{
		{"add edge", `{"ops":[{"op":"add-edge","u":1,"w":2}]}`, "", 1},
		{"all ops", `{"ops":[{"op":"add-edge","u":1,"w":2},{"op":"del-edge","u":1,"w":2},{"op":"add-vertex","id":9,"label":3,"attrs":[1,2]},{"op":"del-vertex","id":4}]}`, "", 4},
		{"empty", `{"ops":[]}`, "empty batch", 0},
		{"no ops field", `{}`, "empty batch", 0},
		{"unknown op", `{"ops":[{"op":"rename","id":1}]}`, "unknown op", 0},
		{"self loop", `{"ops":[{"op":"add-edge","u":3,"w":3}]}`, "self-loop", 0},
		{"negative attr", `{"ops":[{"op":"add-vertex","id":1,"attrs":[-1]}]}`, "negative attr", 0},
		{"bad label", `{"ops":[{"op":"add-vertex","id":1,"label":-9}]}`, "invalid label", 0},
		{"trailing data", `{"ops":[{"op":"del-vertex","id":1}]}{"ops":[]}`, "trailing data", 0},
		{"not json", `ops: go`, "bad batch", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := DecodeBatch(strings.NewReader(tc.in))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("DecodeBatch: %v", err)
				}
				if len(b.Ops) != tc.wantOps {
					t.Fatalf("got %d ops, want %d", len(b.Ops), tc.wantOps)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestDecodeBatchOpClamp(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"ops":[`)
	for i := 0; i <= MaxBatchOps; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"op":"del-vertex","id":%d}`, i)
	}
	sb.WriteString(`]}`)
	if _, err := DecodeBatch(strings.NewReader(sb.String())); err == nil {
		t.Fatal("expected op-count clamp error")
	}
}

func TestApplySemantics(t *testing.T) {
	g := pathGraph(4) // 0-1-2-3
	b := Batch{Ops: []Mutation{
		{Op: OpAddEdge, U: 0, W: 3},             // close the cycle
		{Op: OpAddEdge, U: 0, W: 3},             // duplicate → no-op
		{Op: OpDelEdge, U: 1, W: 2},             // cut the middle
		{Op: OpDelEdge, U: 1, W: 2},             // already gone → no-op
		{Op: OpAddVertex, ID: 9, Label: i32(2)}, // fresh labeled vertex
		{Op: OpAddVertex, ID: 9},                // exists → no-op
		{Op: OpAddEdge, U: 9, W: 0},
		{Op: OpAddEdge, U: 100, W: 0}, // implicit endpoint creation
		{Op: OpDelVertex, ID: 3},      // takes edges {2,3} was cut... {0,3} and {2,3}
		{Op: OpDelVertex, ID: 77},     // absent → no-op
	}}
	stats := ApplyToGraph(g, b)
	if err := g.Validate(); err != nil {
		t.Fatalf("invariants broken after apply: %v", err)
	}
	want := ApplyStats{Ops: 10, EdgesAdded: 3, EdgesRemoved: 3, VerticesAdded: 2, VerticesRemoved: 1, NoOps: 4}
	if stats != want {
		t.Fatalf("stats = %+v, want %+v", stats, want)
	}
	// New external IDs take the next internal IDs in the order the batch
	// creates them; the deleted vertex 3 leaves a tombstone.
	nine, _ := g.Lookup(9)
	hundred, _ := g.Lookup(100)
	if g.Has(3) || nine != 4 || hundred != 5 || !g.Has(nine) || !g.Has(hundred) {
		t.Fatalf("wrong vertex set after apply: 9 → %d, 100 → %d", nine, hundred)
	}
	if v := g.Vertex(nine); v.Label != 2 || !v.HasNeighbor(0) {
		t.Fatalf("vertex 9 = %+v, want label 2 adjacent to 0", v)
	}
	if g.Vertex(1).HasNeighbor(2) {
		t.Fatal("edge {1,2} should be gone")
	}
	wantIDs := []graph.VertexID{0, 1, 2, 4, 5}
	if got := g.IDs(); !reflect.DeepEqual(got, wantIDs) || g.Slots() != 6 {
		t.Fatalf("IDs after apply = %v over %d slots, want %v over 6", got, g.Slots(), wantIDs)
	}
}

func TestApplyRejectsEmptying(t *testing.T) {
	g := pathGraph(3)
	st, err := NewState(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{Ops: []Mutation{
		{Op: OpDelVertex, ID: 0}, {Op: OpDelVertex, ID: 1}, {Op: OpDelVertex, ID: 2},
	}}
	if _, err := st.Apply(g, b); err == nil {
		t.Fatal("expected rejection of graph-emptying batch")
	}
	if g.NumVertices() != 3 || st.Epoch() != 0 {
		t.Fatalf("rejected batch must not mutate: |V|=%d epoch=%d", g.NumVertices(), st.Epoch())
	}
}

// DirtyIDs names the batch's vertices by the internal IDs the apply gives
// them: a known external ID by its own, a new one by the next slot in the
// order the batch creates it, and one only a delete names not at all.
func TestDirtyIDsCoverChangedEdges(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(2, 3)
	g.AddEdge(5, 7) // internal IDs 0 1 2 3
	g.Freeze()
	b := Batch{Ops: []Mutation{
		{Op: OpDelEdge, U: 41, W: 2},
		{Op: OpAddEdge, U: 5, W: 2},
		{Op: OpDelVertex, ID: 7},
		{Op: OpDelVertex, ID: 99},
		{Op: OpAddVertex, ID: 40},
		{Op: OpAddEdge, U: 2, W: 41},
		{Op: OpDelEdge, U: 2, W: 3},
	}}
	want := []graph.VertexID{0, 1, 2, 3, 4, 5}
	if got := b.DirtyIDs(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("DirtyIDs = %v, want %v", got, want)
	}
	ApplyToGraph(g, b)
	for ext, id := range map[graph.VertexID]graph.VertexID{40: 4, 41: 5} {
		if got, ok := g.Lookup(ext); !ok || got != id {
			t.Fatalf("external ID %d applied as internal ID %d (%v), DirtyIDs said %d", ext, got, ok, id)
		}
	}
	if _, ok := g.Lookup(99); ok {
		t.Fatal("a delete of an unknown ID created it")
	}
}
