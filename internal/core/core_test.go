package core

import (
	"sort"
	"testing"
	"testing/quick"

	"gminer/internal/graph"
	"gminer/internal/wire"
)

func TestSubgraphAddHasRemove(t *testing.T) {
	var s Subgraph
	s.AddVertices(5, 3, 9, 3)
	if s.Len() != 3 || !s.Has(3) || !s.Has(5) || !s.Has(9) || s.Has(4) {
		t.Fatalf("subgraph wrong: %v", s.Vertices())
	}
	// Sorted invariant.
	vs := s.Vertices()
	if !sort.SliceIsSorted(vs, func(i, j int) bool { return vs[i] < vs[j] }) {
		t.Fatalf("not sorted: %v", vs)
	}
	s.RemoveVertex(5)
	if s.Len() != 2 || s.Has(5) {
		t.Fatalf("remove failed: %v", s.Vertices())
	}
}

func TestSubgraphEdges(t *testing.T) {
	var s Subgraph
	s.AddEdge(2, 1)
	s.AddEdge(1, 2) // dedup (normalized order)
	s.AddEdge(2, 3)
	if s.NumEdges() != 2 || s.Len() != 3 {
		t.Fatalf("edges=%d verts=%d", s.NumEdges(), s.Len())
	}
	s.RemoveVertex(2)
	if s.NumEdges() != 0 {
		t.Fatalf("edges touching removed vertex survive: %v", s.Edges())
	}
}

func TestSubgraphCloneIndependence(t *testing.T) {
	var s Subgraph
	s.AddEdge(1, 2)
	c := s.Clone()
	c.AddVertex(99)
	c.AddEdge(1, 99)
	if s.Has(99) || s.NumEdges() != 1 {
		t.Fatal("clone aliases parent")
	}
}

func TestTaskTransition(t *testing.T) {
	task := &Task{}
	task.Pull(1, 2)
	task.Pull(3)
	child := &Task{}
	task.Spawn(child)
	next, children := task.TakeTransition()
	if len(next) != 3 || len(children) != 1 {
		t.Fatalf("next=%v children=%d", next, len(children))
	}
	// Second take is empty (consumed).
	next, children = task.TakeTransition()
	if next != nil || children != nil {
		t.Fatal("transition not consumed")
	}
	task.Advance([]graph.VertexID{7})
	if task.Round != 1 || len(task.Cands) != 1 {
		t.Fatalf("advance: round=%d cands=%v", task.Round, task.Cands)
	}
}

func TestCostAndLocalRate(t *testing.T) {
	task := &Task{}
	task.Subgraph.AddVertices(1, 2)
	task.Cands = []graph.VertexID{3, 4, 5, 6}
	task.ToPull = []graph.VertexID{5, 6}
	if task.CostC() != 6 {
		t.Fatalf("c(t)=%d want 6", task.CostC())
	}
	if lr := task.LocalRate(); lr != 0.5 {
		t.Fatalf("lr(t)=%f want 0.5", lr)
	}
	empty := &Task{}
	if empty.LocalRate() != 0 {
		t.Fatal("empty task lr should be 0")
	}
}

func TestTaskCodecRoundTrip(t *testing.T) {
	task := &Task{ID: 42, Round: 3}
	task.Subgraph.AddVertices(1, 5, 9)
	task.Subgraph.AddEdge(1, 5)
	task.Cands = []graph.VertexID{10, 11}
	task.ToPull = []graph.VertexID{11}
	w := wire.NewWriter(64)
	EncodeTask(w, task, NoContext{})
	got, err := DecodeTask(wire.NewReader(w.Bytes()), NoContext{})
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Round != 3 || got.Subgraph.Len() != 3 ||
		got.Subgraph.NumEdges() != 1 || len(got.Cands) != 2 {
		t.Fatalf("round trip mangled: %+v", got)
	}
	if got.ToPull != nil {
		t.Fatalf("to_pull %v crossed the codec; it is the worker's to derive", got.ToPull)
	}
}

func TestTaskCodecCorrupt(t *testing.T) {
	task := &Task{ID: 1}
	task.Subgraph.AddVertex(2)
	w := wire.NewWriter(32)
	EncodeTask(w, task, NoContext{})
	full := w.Bytes()
	for cut := 0; cut < len(full)-1; cut++ {
		if _, err := DecodeTask(wire.NewReader(full[:cut]), NoContext{}); err == nil {
			// Some prefixes decode "successfully" into an empty-but-valid
			// task only if all fields happen to be consumed; with a
			// nonempty subgraph any strict prefix must fail.
			t.Fatalf("cut=%d: expected decode error", cut)
		}
	}
}

func TestAggregators(t *testing.T) {
	max := MaxIntAggregator{}
	p := max.Zero()
	p = max.Add(p, 5)
	p = max.Add(p, 3)
	if p.(int) != 5 {
		t.Fatalf("max=%v", p)
	}
	if max.Merge(7, p).(int) != 7 {
		t.Fatal("merge")
	}
	w := wire.NewWriter(8)
	max.Encode(w, 9)
	if max.Decode(wire.NewReader(w.Bytes())).(int) != 9 {
		t.Fatal("max codec")
	}

	sum := SumInt64Aggregator{}
	s := sum.Zero()
	s = sum.Add(s, int64(4))
	s = sum.Add(s, int64(6))
	if s.(int64) != 10 {
		t.Fatalf("sum=%v", s)
	}
	w2 := wire.NewWriter(8)
	sum.Encode(w2, int64(-3))
	if sum.Decode(wire.NewReader(w2.Bytes())).(int64) != -3 {
		t.Fatal("sum codec")
	}
}

// Property: Subgraph behaves as a sorted set for arbitrary operations.
func TestQuickSubgraphSetSemantics(t *testing.T) {
	f := func(ops []int16) bool {
		var s Subgraph
		ref := map[graph.VertexID]bool{}
		for _, op := range ops {
			id := graph.VertexID(op & 0x3F)
			if op < 0 {
				s.RemoveVertex(id)
				delete(ref, id)
			} else {
				s.AddVertex(id)
				ref[id] = true
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		vs := s.Vertices()
		if !sort.SliceIsSorted(vs, func(i, j int) bool { return vs[i] < vs[j] }) {
			return false
		}
		for _, v := range vs {
			if !ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: task codec round-trips arbitrary tasks.
func TestQuickTaskCodec(t *testing.T) {
	f := func(id uint64, round uint8, verts []int16, cands []int16) bool {
		task := &Task{ID: id, Round: int(round)}
		for _, v := range verts {
			task.Subgraph.AddVertex(graph.VertexID(v))
		}
		for _, c := range cands {
			task.Cands = append(task.Cands, graph.VertexID(c))
		}
		w := wire.NewWriter(64)
		EncodeTask(w, task, NoContext{})
		got, err := DecodeTask(wire.NewReader(w.Bytes()), NoContext{})
		if err != nil {
			return false
		}
		if got.ID != id || got.Round != int(round) || got.Subgraph.Len() != task.Subgraph.Len() {
			return false
		}
		for i, c := range task.Cands {
			if got.Cands[i] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A task list is the one form tasks leave a worker in: it round-trips, and
// the decoder takes exactly a list — no trailing bytes, no count the
// payload cannot hold.
func TestTaskListCodec(t *testing.T) {
	t1 := &Task{ID: 1, Round: 2, Cands: []graph.VertexID{3}}
	t1.Subgraph.AddVertices(1, 2)
	t2 := &Task{ID: 2}
	t2.Subgraph.AddEdge(9, 4)
	w := wire.NewWriter(64)
	EncodeTasks(w, []*Task{t1, t2}, NoContext{})
	list := w.Bytes()
	got, err := DecodeTasks(list, NoContext{})
	if err != nil || len(got) != 2 {
		t.Fatalf("decoded %d tasks, err %v", len(got), err)
	}
	if got[0].ID != 1 || got[0].Round != 2 || got[0].Subgraph.Len() != 2 || len(got[0].Cands) != 1 ||
		got[1].ID != 2 || got[1].Subgraph.NumEdges() != 1 {
		t.Fatalf("round trip mangled: %+v %+v", got[0], got[1])
	}
	if _, err := DecodeTasks(append(list[:len(list):len(list)], 0), NoContext{}); err == nil {
		t.Fatal("a list with a trailing byte decoded")
	}
	for cut := 0; cut < len(list); cut++ {
		if _, err := DecodeTasks(list[:cut], NoContext{}); err == nil {
			t.Fatalf("a list cut at %d of %d bytes decoded", cut, len(list))
		}
	}
	// A count of 2^28 tasks over 4 bytes: refused before any allocation.
	if _, err := DecodeTasks([]byte{0x80, 0x80, 0x80, 0x80, 0x01, 0, 0, 0, 0}, NoContext{}); err == nil {
		t.Fatal("an impossible count decoded")
	}
	w.Reset()
	EncodeTasks(w, nil, NoContext{})
	if got, err := DecodeTasks(w.Bytes(), NoContext{}); err != nil || len(got) != 0 {
		t.Fatalf("empty list: %d tasks, err %v", len(got), err)
	}
}

func FuzzDecodeTasks(f *testing.F) {
	task := &Task{ID: 42, Cands: []graph.VertexID{1, 2, 3}}
	task.Subgraph.AddEdge(1, 2)
	list := func(tasks []*Task) []byte {
		w := wire.NewWriter(64)
		EncodeTasks(w, tasks, NoContext{})
		return w.Bytes()
	}
	f.Add(list(nil))
	f.Add(list([]*Task{task}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := DecodeTasks(data, NoContext{})
		if err != nil {
			return
		}
		for _, task := range tasks {
			if task == nil {
				t.Fatal("decoded nil task without error")
			}
		}
	})
}
