package algo

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/kernels"
	"gminer/internal/plan"
	"gminer/internal/wire"
)

// gmBenchGraph is the benchmark's GM input: RMAT scale 14, 7 labels dealt
// down the degree ranking.
func gmBenchGraph() *graph.Graph {
	g := gen.RMAT(gen.RMATConfig{Scale: 14, Edges: 250_000, Seed: 42})
	gen.DealLabels(g, 7)
	return g
}

// TestGMBenchGraphIsTheBenchmarks pins gen.DealLabels to the labelling it
// mirrors (benchmark/inputs.go, a separate module no test here can import):
// the Figure-1 count and task count are what batch-gm-compute's oracle
// reports at seed 42, and either moves if the two labellings part. GM
// spawns a task only where level 1 matches.
func TestGMBenchGraphIsTheBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("a full GM run on the benchmark graph")
	}
	res := SeqRun(gmBenchGraph(), NewGraphMatch(nil))
	if got := res.AggGlobal.(int64); got != 1_517_950_617 || res.Tasks != 849 {
		t.Errorf("count %d in %d tasks, the benchmark reports 1517950617 in 849", got, res.Tasks)
	}
}

// TestGMSeedNeedsTheLabelColumn: a runtime that never offers the label
// column gets a panic naming core.Plan.Labels at the first seed, not a nil
// dereference deep in matching.
func TestGMSeedNeedsTheLabelColumn(t *testing.T) {
	g := pinnedGraph(t)
	a := NewGraphMatch(nil)
	core.PlanOf(a) // opens the job, offers nothing
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "core.Plan.Labels") {
			t.Fatalf("Seed without the label column: recovered %q, want a panic naming core.Plan.Labels", msg)
		}
	}()
	g.ForEach(func(v *graph.Vertex) bool {
		a.Seed(v, func(*core.Task) {})
		return true
	})
}

// gmParentMajor is GM for p offered g's label column, as every runtime
// offers it.
func gmParentMajor(g *graph.Graph, p *Pattern) *GraphMatch {
	a := NewGraphMatch(p)
	core.PlanOf(a).Labels(g.LabelColumn())
	return a
}

// gmSeedTask seeds a's task rooted at v (nil if a spawns none there).
func gmSeedTask(a *GraphMatch, v *graph.Vertex) *core.Task {
	var t *core.Task
	a.Seed(v, func(s *core.Task) { t = s })
	return t
}

// gmRound runs t's next round against g the way SeqRun does and returns
// the candidates Update asked for (nil: the task ended) and what it folded
// into the aggregator.
func gmRound(g *graph.Graph, a *GraphMatch, t *core.Task) (next []graph.VertexID, agg int64) {
	if t.Round == 0 {
		t.Round = 1
	}
	cands := make([]*graph.Vertex, len(t.Cands))
	for i, id := range t.Cands {
		cands[i] = g.Vertex(id)
	}
	env := &seqEnv{g: g, agg: a.Aggregator(), partial: int64(0)}
	a.Update(t, cands, env)
	next, _ = t.TakeTransition()
	return next, env.partial.(int64)
}

// unionAdj is the frontier oracle: the sorted distinct neighbours of the
// vertices of ids that carry one of labels.
func unionAdj(g *graph.Graph, ids []graph.VertexID, labels ...int32) []graph.VertexID {
	var out []graph.VertexID
	for _, id := range ids {
		if v := g.Vertex(id); v != nil && slices.Contains(labels, v.Label) {
			out = append(out, v.Adj...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// withLabel keeps the vertices of ids that carry label.
func withLabel(g *graph.Graph, ids []graph.VertexID, label int32) (out []graph.VertexID) {
	for _, id := range ids {
		if v := g.Vertex(id); v != nil && v.Label == label {
			out = append(out, id)
		}
	}
	return out
}

// TestGMFrontierExpandsOnlyInternalNodes pins what each round pulls: the
// matches of pattern nodes that have an expanding child — never a leaf,
// never a leaf-only node, whose children's hits come from the label-degree
// column, so never the last two levels.
func TestGMFrontierExpandsOnlyInternalNodes(t *testing.T) {
	g := pinnedGraph(t) // labels cycle over {0..3}

	// oneRound runs p's tasks on g, each of which must end in its first
	// Update having asked the seed for pull (nil: nothing), and returns
	// their count.
	oneRound := func(t *testing.T, p *Pattern, pull func(root *graph.Vertex) []graph.VertexID) int64 {
		a, spawned, unspawned, total := gmParentMajor(g, p), 0, 0, int64(0)
		g.ForEach(func(v *graph.Vertex) bool {
			if v.Label != a.P.Labels[0] {
				return true
			}
			task := gmSeedTask(a, v)
			if task == nil {
				unspawned++
				return true
			}
			if want := pull(v); !slices.Equal(task.Cands, want) {
				t.Fatalf("root %d: seed pulls %v, want %v", v.ID, task.Cands, want)
			}
			next, agg := gmRound(g, a, task)
			if next != nil {
				t.Fatalf("root %d: round 1 pulled %v", v.ID, next)
			}
			spawned, total = spawned+1, total+agg
			return true
		})
		if want := RefMatchCount(g, p); total != want || want == 0 {
			t.Fatalf("count %d, reference %d", total, want)
		}
		if spawned == 0 || unspawned == 0 {
			t.Fatalf("%d seeds spawned, %d went unspawned: the workload does not exercise the death rule", spawned, unspawned)
		}
		return total
	}

	t.Run("figure", func(t *testing.T) {
		// Level 1 is b (label 1, a leaf) and c (label 2, leaf-only): c's
		// leaves are counted off its label-degree rows at the seed, so
		// nothing is pulled and round 1 only counts.
		oneRound(t, FigurePattern(), func(*graph.Vertex) []graph.VertexID { return nil })
	})

	t.Run("deep", func(t *testing.T) {
		// gmDeepPattern's shape, e relabelled into the graph's alphabet: c
		// has an expanding child, so the seed asks for the c-matches; d is
		// leaf-only, so round 1 ends the task.
		p := MustPattern([]int32{0, 1, 2, 1, 3, 0}, []int{-1, 0, 0, 2, 2, 4})
		oneRound(t, p, func(v *graph.Vertex) []graph.VertexID { return withLabel(g, v.Adj, 2) })
	})

	t.Run("star", func(t *testing.T) {
		// Every non-root node is a leaf: the root's row counts them, the seed
		// pulls nothing, one round, then the count.
		oneRound(t, MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 0}), func(*graph.Vertex) []graph.VertexID { return nil })
	})

	t.Run("path", func(t *testing.T) {
		// Depth 4: the seed matched level 1, each round pulls the next
		// level's matches, and level 3 — leaf-only — is never pulled: its
		// round counts.
		labels := []int32{0, 1, 2, 3, 0}
		p := PathPattern(labels...)
		a, finished, total := gmParentMajor(g, p), 0, int64(0)
		g.ForEach(func(v *graph.Vertex) bool {
			task := gmSeedTask(a, v)
			if task == nil {
				return true
			}
			if !slices.Equal(task.Cands, withLabel(g, v.Adj, labels[1])) {
				t.Fatalf("root %d: seed pulls %v", v.ID, task.Cands)
			}
			for {
				frontier := task.Cands
				next, agg := gmRound(g, a, task)
				total += agg
				if next == nil {
					if task.Round+2 == p.Depth() {
						finished++
					}
					return true
				}
				if task.Round+2 >= p.Depth() {
					t.Fatalf("root %d: round %d of a depth-%d pattern pulled", v.ID, task.Round, p.Depth())
				}
				if want := withLabel(g, unionAdj(g, frontier, labels[task.Round]), labels[task.Round+1]); !slices.Equal(next, want) {
					t.Fatalf("root %d round %d: pulled %v, want %v", v.ID, task.Round, next, want)
				}
				task.Advance(next)
			}
		})
		if want := RefMatchCount(g, p); total != want || finished == 0 {
			t.Fatalf("path count %d, reference %d, %d tasks reached the last round", total, want, finished)
		}
	})
}

// gmHubTask seeds the highest-degree root-labelled vertex of g.
func gmHubTask(g *graph.Graph, a *GraphMatch) *core.Task {
	var hub *graph.Vertex
	g.ForEach(func(v *graph.Vertex) bool {
		if v.Label == a.P.Labels[0] && (hub == nil || len(v.Adj) > len(hub.Adj)) {
			hub = v
		}
		return true
	})
	return gmSeedTask(a, hub)
}

// gmDeepPattern has an expanding node below level 1 and, on every level, a
// parent with a leaf and an expanding child: a(b, c(b, d(e))).
func gmDeepPattern() *Pattern {
	return MustPattern([]int32{0, 1, 2, 1, 3, 4}, []int{-1, 0, 0, 2, 2, 4})
}

// gmRepeatRound returns a function that re-runs round `round` of a's
// hub-rooted task on g: Update opens its level's nodes afresh, so one task
// state serves every repetition.
func gmRepeatRound(g *graph.Graph, a *GraphMatch, round int) func() {
	// One scratch whatever the pool drops (under -race it drops at random),
	// so a repetition allocates what Update allocates and nothing else.
	sc := a.scratch.New()
	a.scratch.New = func() any { return sc }
	task := gmHubTask(g, a)
	for r := 1; r < round; r++ {
		next, _ := gmRound(g, a, task)
		task.Advance(next)
	}
	task.Round = round
	cands := make([]*graph.Vertex, len(task.Cands))
	for i, id := range task.Cands {
		cands[i] = g.Vertex(id)
	}
	env := &seqEnv{g: g, agg: a.Aggregator(), partial: int64(0)}
	return func() {
		a.Update(task, cands, env)
		task.TakeTransition()
	}
}

// gmRoundArms names the Update calls the allocation bound and the benchmark
// cover: Figure 1's one round (a count), the deep pattern's (a level walked
// off pulled lists, leaves counted off the column, then the count), and the
// depth-4 path's first (a level walked and its matches pulled).
func gmRoundArms(g *graph.Graph) map[string]func() {
	arm := func(p *Pattern, round int) func() { return gmRepeatRound(g, gmParentMajor(g, p), round) }
	return map[string]func(){
		"figure/round1": arm(FigurePattern(), 1),
		"deep/round1":   arm(gmDeepPattern(), 1),
		"path/round1":   arm(PathPattern(0, 1, 2, 3, 0), 1),
	}
}

// TestGMUpdateAllocsBounded pins the allocations of one round: a walked or
// counted leaf's counters, the copy Pull takes of the frontier, the boxed
// count — and no per-match or per-candidate allocation, so a map cannot
// creep back in (the map-based context allocated thousands of times a round
// here).
func TestGMUpdateAllocsBounded(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 30_000, Seed: 42})
	gen.DealLabels(g, 7)
	for name, run := range gmRoundArms(g) {
		run() // grow the task's slices and the pooled scratch once
		if allocs := testing.AllocsPerRun(20, run); allocs > 8 {
			t.Errorf("%s: %.0f allocations per Update, want at most 8", name, allocs)
		}
	}
}

// BenchmarkGMUpdateRounds times the rounds of the hub-rooted tasks of
// gmRoundArms on the benchmark's graph — the largest single Update calls of
// a batch-gm-compute job and of deeper patterns on its graph.
func BenchmarkGMUpdateRounds(b *testing.B) {
	g := gmBenchGraph()
	for name, run := range gmRoundArms(g) {
		b.Run(name, func(b *testing.B) {
			run() // the column is cut at the first ask
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// gmSeedArms names the patterns the seed tests cover: Figure 1 (leaves
// counted off the column at the seed), the deep tree (a level-1 node that
// pulls), a path, a star whose root is leaf-only, and a lone root.
func gmSeedArms() map[string]*Pattern {
	return map[string]*Pattern{
		"figure": FigurePattern(),
		"deep":   gmDeepPattern(),
		"path":   PathPattern(0, 1, 2, 3, 0),
		"star":   MustPattern([]int32{0, 1, 2}, []int{-1, 0, 0}),
		"root":   MustPattern([]int32{3}, []int{-1}),
	}
}

// gmSeedGraph is the RMAT-11 graph with 7 dealt labels the allocation tests
// run on.
func gmSeedGraph() *graph.Graph {
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 30_000, Seed: 42})
	gen.DealLabels(g, 7)
	return g
}

// TestGMSeedAllocsBounded pins what a seed costs: a root-label vertex whose
// level 1 matches nothing is matched in the pooled scratch and allocates
// nothing, and one that spawns allocates its context (the struct and its
// nodes), the three arenas its frontier and matches, positions and hits are
// copied into, the task and its subgraph — never per match.
func TestGMSeedAllocsBounded(t *testing.T) {
	g := gmSeedGraph()
	for name, p := range gmSeedArms() {
		a := gmParentMajor(g, p)
		sc := a.scratch.New() // one scratch, whatever the pool drops under -race
		a.scratch.New = func() any { return sc }
		var dies, spawns *graph.Vertex
		g.ForEach(func(v *graph.Vertex) bool {
			if v.Label != p.Labels[0] {
				return true
			}
			if task := gmSeedTask(a, v); task == nil && (dies == nil || len(v.Adj) > len(dies.Adj)) {
				dies = v
			} else if task != nil && (spawns == nil || len(v.Adj) > len(spawns.Adj)) {
				spawns = v
			}
			return true
		})
		if spawns == nil {
			t.Fatalf("%s: no seed spawns", name)
		}
		if dies != nil {
			if allocs := testing.AllocsPerRun(20, func() { gmSeedTask(a, dies) }); allocs != 0 {
				t.Errorf("%s: %.0f allocations for a seed that spawns nothing, want 0", name, allocs)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { gmSeedTask(a, spawns) }); allocs > 7 {
			t.Errorf("%s: %.0f allocations for a seed that spawns, want at most 7", name, allocs)
		}
	}
}

// TestGMSeededContextsKeepNothingOfTheScratch: a spawned task's context is
// its own. Seeding every other vertex after it leaves it as it was, and
// growing every node's slices leaves what each held before as it was.
func TestGMSeededContextsKeepNothingOfTheScratch(t *testing.T) {
	g := gmSeedGraph()
	for name, p := range gmSeedArms() {
		a := gmParentMajor(g, p)
		var first *core.Task
		var want []byte
		g.ForEach(func(v *graph.Vertex) bool {
			task := gmSeedTask(a, v)
			if first == nil && task != nil {
				first, want = task, gmEncoded(a, task)
			}
			return true
		})
		if got := gmEncoded(a, first); !bytes.Equal(got, want) {
			t.Fatalf("%s: the first task's context changed as later vertices seeded", name)
		}
		nodes := first.Context.(*gmContext).nodes
		held := make([]gmNode, len(nodes))
		for i, n := range nodes {
			held[i] = gmNode{slices.Clone(n.hits), slices.Clone(n.matches), slices.Clone(n.offsets), slices.Clone(n.parents)}
		}
		cands := slices.Clone(first.Cands)
		for i := range nodes {
			n := &nodes[i]
			n.hits, n.matches = append(n.hits, -1), append(n.matches, -1)
			n.offsets, n.parents = append(n.offsets, -1), append(n.parents, -1)
		}
		for i, n := range nodes {
			h := held[i]
			if !slices.Equal(n.hits[:len(h.hits)], h.hits) || !slices.Equal(n.matches[:len(h.matches)], h.matches) ||
				!slices.Equal(n.offsets[:len(h.offsets)], h.offsets) || !slices.Equal(n.parents[:len(h.parents)], h.parents) {
				t.Fatalf("%s: growing the nodes' slices overwrote node %d", name, i)
			}
		}
		if !slices.Equal(first.Cands, cands) {
			t.Fatalf("%s: growing the nodes' slices overwrote the frontier", name)
		}
	}
}

// TestGMSeededContextsPinned pins every seeded task's encoded context and
// frontier on the RMAT-11 graph, pattern by pattern, to the bytes Seed
// produced when it built each context slice by slice: matching in the
// scratch and copying out must not move a byte of format 0xB3.
func TestGMSeededContextsPinned(t *testing.T) {
	want := map[string]string{
		"figure": "121 tasks 6430a0a13a607181",
		"deep":   "121 tasks 37f05a7e2db2cc0b",
		"path":   "157 tasks f5693bc774fcf977",
		"star":   "121 tasks 243828c51afc55ef",
		"root":   "293 tasks 052a3f6527ad2582",
	}
	g := gmSeedGraph()
	for name, p := range gmSeedArms() {
		a := gmParentMajor(g, p)
		h, tasks := fnv.New64a(), 0
		g.ForEach(func(v *graph.Vertex) bool {
			if task := gmSeedTask(a, v); task != nil {
				tasks++
				h.Write(gmEncoded(a, task))
				w := wire.NewWriter(64)
				wire.EncodeIDs(w, task.Cands)
				h.Write(w.Bytes())
			}
			return true
		})
		if got := fmt.Sprintf("%d tasks %016x", tasks, h.Sum64()); got != want[name] {
			t.Errorf("%s: seeded %s, want %s", name, got, want[name])
		}
	}
}

// gmEncoded is task's context as it crosses the wire.
func gmEncoded(a *GraphMatch, task *core.Task) []byte {
	w := wire.NewWriter(64)
	a.EncodeContext(w, task.Context)
	return w.Bytes()
}

// BenchmarkGMSeed times GM's task generator over every vertex of the
// benchmark's graph (ns/seed, allocs/seed): Figure 1's level-1 match and
// leaf counts, where most root-label seeds spawn nothing.
func BenchmarkGMSeed(b *testing.B) {
	g := gmBenchGraph()
	a := gmParentMajor(g, nil)
	var verts []*graph.Vertex
	g.ForEach(func(v *graph.Vertex) bool {
		verts = append(verts, v)
		return true
	})
	spawn := func(*core.Task) {}
	for _, v := range verts { // the column is cut at the first ask
		a.Seed(v, spawn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range verts {
			a.Seed(v, spawn)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(verts)), "ns/seed")
	b.ReportMetric(float64(testing.AllocsPerRun(1, func() {
		for _, v := range verts {
			a.Seed(v, spawn)
		}
	}))/float64(len(verts)), "allocs/seed")
}

// gmContextSamples returns encoded contexts of up to eight real tasks of a
// on the pinned graph as they cross the wire, waiting for round 1 (the seed
// matched level 1).
func gmContextSamples(tb testing.TB, g *graph.Graph, a *GraphMatch) [][]byte {
	var out [][]byte
	g.ForEach(func(v *graph.Vertex) bool {
		task := gmSeedTask(a, v)
		if task != nil && len(out) < 8 {
			w := wire.NewWriter(64)
			a.EncodeContext(w, task.Context)
			out = append(out, w.Bytes())
		}
		return true
	})
	if len(out) < 8 {
		tb.Fatalf("%d tasks reached the wire", len(out))
	}
	return out
}

// gmCarry moves task across the task codec — what spill, steal and restore
// do to it.
func gmCarry(tb testing.TB, a *GraphMatch, task *core.Task) *core.Task {
	w := wire.NewWriter(256)
	core.EncodeTask(w, task, a)
	moved, err := core.DecodeTask(wire.NewReader(w.Bytes()), a)
	if err != nil {
		tb.Fatalf("task codec: %v", err)
	}
	if !reflect.DeepEqual(moved.Context, task.Context) || !slices.Equal(moved.Cands, task.Cands) {
		tb.Fatalf("task changed on the wire:\n got %+v\nwant %+v", moved.Context, task.Context)
	}
	return moved
}

// TestGMContextCodec: a context crosses the wire unchanged and the task
// finishes with the same count; the map-based encoding, the retired
// candidate-major and pre-column formats, a foreign pattern's context and a
// truncated one are wire errors.
func TestGMContextCodec(t *testing.T) {
	g := pinnedGraph(t)
	pm := gmParentMajor(g, FigurePattern())
	var direct, carried int64
	g.ForEach(func(v *graph.Vertex) bool {
		if task := gmSeedTask(pm, v); task != nil {
			twin := gmCarry(t, pm, task)
			_, c1 := gmRound(g, pm, task)
			_, c2 := gmRound(g, pm, twin)
			direct, carried = direct+c1, carried+c2
		}
		return true
	})
	if want := RefMatchCount(g, pm.P); direct != want || carried != want {
		t.Fatalf("count %d direct, %d carried across the wire, reference %d", direct, carried, want)
	}

	sample := gmContextSamples(t, g, pm)[0]
	old := wire.NewWriter(16) // the map encoding: matched-node count first
	old.Uvarint(1)
	old.Int(0)
	wire.EncodeIDs(old, []graph.VertexID{5})
	old.Uvarint(0)
	for _, c := range []struct {
		name string
		a    *GraphMatch
		data []byte
	}{
		{"map-encoding", pm, old.Bytes()},
		{"truncated", pm, sample[:len(sample)-1]},
		{"empty", pm, nil},
		{"candidate-major format byte", pm, append([]byte{gmFormatCandidateMajor}, sample[1:]...)},
		{"pre-column format byte", pm, append([]byte{gmFormatPreColumn}, sample[1:]...)},
		{"foreign pattern", gmParentMajor(g, PathPattern(0, 1, 2)), sample},
	} {
		r := wire.NewReader(c.data)
		if ctx := c.a.DecodeContext(r); ctx != nil || !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Errorf("%s: decoded %v, err %v; want nil and wire.ErrCorrupt", c.name, ctx, r.Err())
		}
	}
}

// gmFormatCandidateMajor led the contexts of the retired candidate-major
// arm, which held one level fewer at a given round, and gmFormatPreColumn
// those of the parent-major arm before the label-degree column, which held
// a leaf-only node's leaf hits one round later.
const (
	gmFormatCandidateMajor = 0xB1
	gmFormatPreColumn      = 0xB2
)

// FuzzGMContext: arbitrary bytes never panic the decoder or make it
// allocate beyond the input's size (every length prefix is clamped by
// wire.Reader.Count); whatever decodes is safe to count over, and encoding
// is canonical — decode∘encode is the identity on contexts and
// encode∘decode on the bytes the encoder produces.
func FuzzGMContext(f *testing.F) {
	g := pinnedGraph(f)
	pats := []*GraphMatch{
		gmParentMajor(g, FigurePattern()),
		gmParentMajor(g, MustPattern([]int32{0, 1, 1, 2, 3, 1}, []int{-1, 0, 0, 1, 1, 2})),
	}
	var sample []byte
	for i, a := range pats {
		for _, data := range gmContextSamples(f, g, a) {
			f.Add(uint8(i), data)
			sample = data
		}
	}
	f.Add(uint8(0), []byte{gmFormat, 5, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})  // huge count, no payload
	f.Add(uint8(0), []byte{1, 0, 1, 10, 0})                                // the old encoding
	f.Add(uint8(0), []byte{gmFormat, 5, 0, 0, 0, 0, 0, 0})                 // no root match: nothing to count from
	f.Add(uint8(1), append([]byte{gmFormatCandidateMajor}, sample[1:]...)) // the retired candidate-major format byte
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		a := pats[int(which)%len(pats)]
		r := wire.NewReader(data)
		decoded := a.DecodeContext(r)
		if r.Err() != nil {
			if decoded != nil {
				t.Fatalf("decode failed (%v) but returned %+v", r.Err(), decoded)
			}
			return
		}
		ctx := decoded.(*gmContext)
		if size := gmContextSize(ctx); size > 8*len(data)+8*len(a.P.Labels) {
			t.Fatalf("%d input bytes decoded into %d context elements", len(data), size)
		}
		a.countMatches(ctx, a.scratch.Get().(*gmScratch)) // must not index out of range

		w := wire.NewWriter(len(data))
		a.EncodeContext(w, ctx)
		r2 := wire.NewReader(w.Bytes())
		again := a.DecodeContext(r2)
		if r2.Err() != nil || r2.Remaining() != 0 || !reflect.DeepEqual(again, decoded) {
			t.Fatalf("decode∘encode is not the identity: err=%v left=%d\n got %+v\nwant %+v", r2.Err(), r2.Remaining(), again, decoded)
		}
		w2 := wire.NewWriter(w.Len())
		a.EncodeContext(w2, again)
		if !bytes.Equal(w.Bytes(), w2.Bytes()) {
			t.Fatalf("encoding is not canonical: %x then %x", w.Bytes(), w2.Bytes())
		}
	})
}

func gmContextSize(ctx *gmContext) (n int) {
	for _, nd := range ctx.nodes {
		n += len(nd.hits) + len(nd.matches) + cap(nd.offsets) + cap(nd.parents)
	}
	return n
}

// TestGMPatternZoo: GM counts what RefMatchCount and the compiled ModeHom
// plan count, on every pattern shape the matching parts on — the root alone,
// one level of leaves, expanding nodes below level 1, same-label siblings
// (leaves, expanding, and one of each), a parent with leaf and expanding
// children, two leaf-only parents of one label with leaves of different
// labels on one level, a leaf-only parent above the deepest level, and
// leaves whose labels lie off [0, 64) — over several graphs with dense and
// with strided IDs. Every task crosses the task codec before every round,
// and its task count is what SeqRun reports: one per root whose level 1
// matches.
func TestGMPatternZoo(t *testing.T) {
	patterns := map[string]*Pattern{
		"figure":        FigurePattern(),
		"depth0":        MustPattern([]int32{1}, []int{-1}),
		"depth1":        MustPattern([]int32{0, 1, 2, 1}, []int{-1, 0, 0, 0}),
		"path":          PathPattern(0, 1, 2, 3, 4),
		"deep":          gmDeepPattern(),
		"twin-leaves":   MustPattern([]int32{0, 1, 2, 2}, []int{-1, 0, 1, 1}),
		"twins":         MustPattern([]int32{0, 1, 1, 2, 3}, []int{-1, 0, 0, 1, 2}),
		"leaf+internal": MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 1}),
		// a(b(c(d), c(e))): one level-2 vertex may match both c nodes, and
		// gives their leaves different hits.
		"twin-parents": MustPattern([]int32{0, 1, 2, 2, 3, 4}, []int{-1, 0, 1, 1, 2, 3}),
		// a(b(c), d(e(b))): b's leaves are counted a level above the deepest.
		"leaf-parent-above": gmLeafParentAbovePattern(),
		// a(c(64, -3), 64): leaf labels the mask does not hold; it runs on
		// the graphs with labels 3 and 4 moved to 64 and -3 (gmWideLabels).
		"wide-leaves": MustPattern([]int32{0, 2, 64, gmWideLabels(4), 64}, []int{-1, 0, 1, 1, 0}),
	}
	for _, seed := range []int64{1, 2, 3} {
		dense := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: seed})
		gen.DealLabels(dense, 5)
		for gname, g := range map[string]*graph.Graph{"dense": dense, "strided": stridedIDs(dense)} {
			wide := relabeled(g, gmWideLabels)
			csr, wideCSR := kernels.MustBuild(g), kernels.MustBuild(wide)
			for pname, p := range patterns {
				shape := fmt.Sprintf("seed %d/%s/%s", seed, gname, pname)
				g, csr := g, csr
				if slices.ContainsFunc(p.Labels, func(l int32) bool { return uint32(l) >= 64 }) {
					g, csr = wide, wideCSR
				}
				want := RefMatchCount(g, p)
				if want == 0 {
					t.Fatalf("%s: degenerate: nothing matches", shape)
				}
				a := gmParentMajor(g, p)
				var total, tasks int64
				g.ForEach(func(v *graph.Vertex) bool {
					for task := gmSeedTask(a, v); task != nil; {
						task = gmCarry(t, a, task)
						next, agg := gmRound(g, a, task)
						total += agg
						if next == nil {
							tasks++
							break
						}
						task.Advance(next)
					}
					return true
				})
				hp, err := plan.Compile(p.Labels, p.Parent)
				if err != nil {
					t.Fatal(err)
				}
				hom, err := plan.HomCount(csr, hp)
				seq := SeqRun(g, gmParentMajor(g, p))
				if total != want || seq.AggGlobal != any(want) || err != nil || hom != want {
					t.Errorf("%s: %d stepped, %v run; plan.HomCount %d (%v); reference %d", shape, total, seq.AggGlobal, hom, err, want)
				}
				if tasks != seq.Tasks {
					t.Errorf("%s: %d tasks stepped, %d run", shape, tasks, seq.Tasks)
				}
			}
		}
	}
}

// gmLeafParentAbovePattern is a(b(c), d(e(b))): the leaf-only parent b sits
// on level 1, above the deepest level's parent e.
func gmLeafParentAbovePattern() *Pattern {
	return MustPattern([]int32{0, 1, 3, 2, 4, 1}, []int{-1, 0, 0, 1, 2, 4})
}

// gmWideLabels moves the dealt labels 3 and 4 off [0, 64), to 64 and -3.
func gmWideLabels(label int32) int32 {
	switch label {
	case 3:
		return 64
	case 4:
		return -3
	}
	return label
}

// relabeled is a copy of g, external IDs and edges alike, whose vertices
// carry f of their labels.
func relabeled(g *graph.Graph, f func(int32) int32) *graph.Graph {
	out := graph.New(g.NumVertices())
	g.ForEach(func(v *graph.Vertex) bool {
		nv := out.AddVertex(g.External(v.ID))
		nv.Label, nv.Attrs = f(v.Label), v.Attrs
		for _, u := range v.Adj {
			out.AddEdge(g.External(v.ID), g.External(u))
		}
		return true
	})
	out.Freeze()
	return out
}
