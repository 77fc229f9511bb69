package algo

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/kernels"
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
// reports at seed 42, and either moves if the two labellings part. The
// candidate-major baseline spawns a task per root-labelled vertex; the
// parent-major arm only where level 1 matches.
func TestGMBenchGraphIsTheBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("a full GM run on the benchmark graph")
	}
	g := gmBenchGraph()
	generic := NewGraphMatch(nil)
	generic.Generic = true
	for _, arm := range []struct {
		a     *GraphMatch
		tasks int64
	}{{NewGraphMatch(nil), 849}, {generic, 2341}} {
		res := SeqRun(g, arm.a)
		if got := res.AggGlobal.(int64); got != 1_517_950_617 || res.Tasks != arm.tasks {
			t.Errorf("generic=%v: count %d in %d tasks, the benchmark reports 1517950617 in %d", arm.a.Generic, got, res.Tasks, arm.tasks)
		}
	}
}

// gmParentMajor is GM for p offered g's label column, as every runtime
// offers it: the parent-major arm.
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

// TestGMFrontierExpandsOnlyInternalNodes pins what each round pulls: on the
// candidate-major baseline the neighbourhoods of the matches of pattern nodes
// that have children; parent-major, those matches themselves — never a leaf,
// never the deepest level.
func TestGMFrontierExpandsOnlyInternalNodes(t *testing.T) {
	g := pinnedGraph(t) // labels cycle over {0..3}

	t.Run("figure", func(t *testing.T) {
		// Level 1 is b (label 1, a leaf) and c (label 2, expanding): round 2
		// pulls ∪ adj(c-matches), a strict subset of the ∪ adj(b- and
		// c-matches) the map-based frontier pulled. Parent-major, the seed
		// asks for the c-matches and round 1 ends the task.
		a, pm, narrower, unspawned := NewGraphMatch(FigurePattern()), gmParentMajor(g, FigurePattern()), 0, 0
		g.ForEach(func(v *graph.Vertex) bool {
			task := gmSeedTask(a, v)
			if task == nil {
				return true
			}
			if task := gmSeedTask(pm, v); task == nil {
				unspawned++
			} else if want := withLabel(g, v.Adj, 2); !slices.Equal(task.Cands, want) {
				t.Fatalf("root %d: parent-major seed pulls %v, want its c-matches %v", v.ID, task.Cands, want)
			} else if next, _ := gmRound(g, pm, task); next != nil {
				t.Fatalf("root %d: parent-major round 1 of a depth-2 pattern pulled %v", v.ID, next)
			}
			next, _ := gmRound(g, a, task)
			if next == nil {
				return true
			}
			want, old := unionAdj(g, v.Adj, 2), unionAdj(g, v.Adj, 1, 2)
			if !slices.Equal(next, want) {
				t.Fatalf("root %d: round 2 pulls %v, want ∪ adj(c-matches) %v", v.ID, next, want)
			}
			if kernels.Count(next, old) != len(next) {
				t.Fatalf("root %d: frontier %v is not inside the old frontier %v", v.ID, next, old)
			}
			if len(next) < len(old) {
				narrower++
			}
			return true
		})
		if narrower == 0 || unspawned == 0 {
			t.Fatalf("%d frontiers shrank, %d seeds went unspawned: the workload does not exercise the leaf", narrower, unspawned)
		}
	})

	t.Run("star", func(t *testing.T) {
		// Every non-root node is a leaf: one round, then the count;
		// parent-major pulls nothing at all.
		p := MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 0})
		for _, a := range []*GraphMatch{NewGraphMatch(p), gmParentMajor(g, p)} {
			total := int64(0)
			g.ForEach(func(v *graph.Vertex) bool {
				if task := gmSeedTask(a, v); task != nil {
					if a.labelOf != nil && len(task.Cands) != 0 {
						t.Fatalf("root %d: parent-major star seed pulls %v", v.ID, task.Cands)
					}
					next, agg := gmRound(g, a, task)
					if next != nil {
						t.Fatalf("root %d: star pattern asked for a second round (%d candidates)", v.ID, len(next))
					}
					total += agg
				}
				return true
			})
			if want := RefMatchCount(g, p); total != want || want == 0 {
				t.Fatalf("parent-major=%v: star count %d, reference %d", a.labelOf != nil, total, want)
			}
		}
	})

	t.Run("path", func(t *testing.T) {
		// Depth 4, every node but the last expanding: candidate-major, every
		// level pulls the neighbourhoods of exactly its own label's matches;
		// parent-major, the next level's matches, and the deepest none.
		labels := []int32{0, 1, 2, 3, 0}
		p := PathPattern(labels...)
		for _, a := range []*GraphMatch{NewGraphMatch(p), gmParentMajor(g, p)} {
			finished, total, lag := 0, int64(0), 0
			if a.labelOf != nil {
				lag = 1 // the seed matched level 1
			}
			g.ForEach(func(v *graph.Vertex) bool {
				task := gmSeedTask(a, v)
				if task == nil {
					return true
				}
				if lag == 1 && !slices.Equal(task.Cands, withLabel(g, v.Adj, labels[1])) {
					t.Fatalf("root %d: parent-major seed pulls %v", v.ID, task.Cands)
				}
				for {
					frontier := task.Cands
					next, agg := gmRound(g, a, task)
					total += agg
					if next == nil {
						if task.Round+lag == p.Depth() {
							finished++
						}
						return true
					}
					if task.Round+lag >= p.Depth() {
						t.Fatalf("root %d: round %d of a depth-%d pattern pulled", v.ID, task.Round, p.Depth())
					}
					want := unionAdj(g, frontier, labels[task.Round])
					if lag == 1 {
						want = withLabel(g, want, labels[task.Round+1])
					}
					if !slices.Equal(next, want) {
						t.Fatalf("root %d round %d: pulled %v, want %v", v.ID, task.Round, next, want)
					}
					task.Advance(next)
				}
			})
			if want := RefMatchCount(g, p); total != want || finished == 0 {
				t.Fatalf("parent-major=%v: path count %d, reference %d, %d tasks reached the last level", lag == 1, total, want, finished)
			}
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
// cover: both rounds of candidate-major Figure 1, and both rounds of the
// parent-major deep pattern (pairs grouped and pulled, then leaves counted).
func gmRoundArms(g *graph.Graph) map[string]func() {
	arms := map[string]func(){}
	for round := 1; round <= 2; round++ {
		arms[fmt.Sprintf("generic/round%d", round)] = gmRepeatRound(g, NewGraphMatch(FigurePattern()), round)
		arms[fmt.Sprintf("parent-major/round%d", round)] = gmRepeatRound(g, gmParentMajor(g, gmDeepPattern()), round)
	}
	return arms
}

// TestGMUpdateAllocsBounded pins the allocations of one round: a leaf's
// counters, the copy Pull takes of the frontier, the boxed count — and no
// per-match or per-candidate allocation, so a map cannot creep back in
// (the map-based context allocated thousands of times a round here).
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
// a batch-gm-compute job.
func BenchmarkGMUpdateRounds(b *testing.B) {
	for name, run := range gmRoundArms(gmBenchGraph()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// gmContextSamples returns encoded contexts of up to eight real tasks of a
// on the pinned graph as they cross the wire: parent-major, waiting for round
// 1 (the seed matched level 1); candidate-major, waiting for round 2.
func gmContextSamples(tb testing.TB, g *graph.Graph, a *GraphMatch) [][]byte {
	var out [][]byte
	g.ForEach(func(v *graph.Vertex) bool {
		task := gmSeedTask(a, v)
		if task != nil && a.labelOf == nil {
			if next, _ := gmRound(g, a, task); next == nil {
				task = nil
			}
		}
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

// TestGMContextCodec: on both arms a context crosses the wire unchanged and
// the task finishes with the same count; the map-based encoding both
// replaced, the other arm's bytes (a candidate-major checkpoint or steal
// batch read by a parent-major job, and back), a foreign pattern's context
// and a truncated one are wire errors.
func TestGMContextCodec(t *testing.T) {
	g := pinnedGraph(t)
	pm, generic := gmParentMajor(g, FigurePattern()), NewGraphMatch(FigurePattern())
	for _, a := range []*GraphMatch{pm, generic} {
		var direct, carried int64
		g.ForEach(func(v *graph.Vertex) bool {
			task := gmSeedTask(a, v)
			if task == nil {
				return true
			}
			if a == generic {
				next, _ := gmRound(g, a, task)
				if next == nil {
					return true
				}
				task.Advance(next)
			}
			twin := gmCarry(t, a, task)
			_, c1 := gmRound(g, a, task)
			_, c2 := gmRound(g, a, twin)
			direct, carried = direct+c1, carried+c2
			return true
		})
		if want := RefMatchCount(g, a.P); direct != want || carried != want {
			t.Fatalf("generic=%v: count %d direct, %d carried across the wire, reference %d", a == generic, direct, carried, want)
		}
	}

	sample, genericSample := gmContextSamples(t, g, pm)[0], gmContextSamples(t, g, generic)[0]
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
		{"candidate-major bytes, parent-major job", pm, genericSample},
		{"parent-major bytes, candidate-major job", generic, sample},
		{"foreign pattern", gmParentMajor(g, PathPattern(0, 1, 2)), sample},
	} {
		r := wire.NewReader(c.data)
		if ctx := c.a.DecodeContext(r); ctx != nil || !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Errorf("%s: decoded %v, err %v; want nil and wire.ErrCorrupt", c.name, ctx, r.Err())
		}
	}
}

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
	f.Add(uint8(0), []byte{gmFormat, 5, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge count, no payload
	f.Add(uint8(0), []byte{1, 0, 1, 10, 0})                               // the old encoding
	f.Add(uint8(0), []byte{gmFormat, 5, 0, 0, 0, 0, 0, 0})                // no root match: nothing to count from
	f.Add(uint8(1), append([]byte{gmFormatGeneric}, sample[1:]...))       // a candidate-major context's format byte
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

// TestGMPatternZoo: parent-major GM counts what the candidate-major baseline
// and RefMatchCount count, on every pattern shape the two arms part on — the
// root alone, one level of leaves, expanding nodes below level 1, same-label
// siblings (leaves, expanding, and one of each), a parent with leaf and
// expanding children — over several graphs with dense and with strided IDs.
// Every parent-major task crosses the task codec before every round, and its
// task count is what SeqRun reports: one per root whose level 1 matches.
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
	}
	for _, seed := range []int64{1, 2, 3} {
		dense := gen.RMAT(gen.RMATConfig{Scale: 9, Edges: 4000, Seed: seed})
		gen.DealLabels(dense, 5)
		for gname, g := range map[string]*graph.Graph{"dense": dense, "strided": sparseIDs(dense)} {
			for pname, p := range patterns {
				shape := fmt.Sprintf("seed %d/%s/%s", seed, gname, pname)
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
				generic := NewGraphMatch(p)
				generic.Generic = true
				seq, base := SeqRun(g, gmParentMajor(g, p)), SeqRun(g, generic)
				if total != want || seq.AggGlobal != any(want) || base.AggGlobal != any(want) {
					t.Errorf("%s: parent-major %d stepped, %v run; candidate-major %v; reference %d", shape, total, seq.AggGlobal, base.AggGlobal, want)
				}
				if tasks != seq.Tasks || tasks > base.Tasks {
					t.Errorf("%s: %d tasks stepped, %d run parent-major, %d candidate-major", shape, tasks, seq.Tasks, base.Tasks)
				}
			}
		}
	}
}
