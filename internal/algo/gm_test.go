package algo

import (
	"bytes"
	"errors"
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
// reports at seed 42, and either moves if the two labellings part.
func TestGMBenchGraphIsTheBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("a full GM run on the benchmark graph")
	}
	res := SeqRun(gmBenchGraph(), NewGraphMatch(nil))
	if got := res.AggGlobal.(int64); got != 1_517_950_617 || res.Tasks != 2341 {
		t.Errorf("count %d in %d tasks, the benchmark reports 1517950617 in 2341", got, res.Tasks)
	}
}

// gmSeedTask seeds a's task rooted at v (nil if v does not carry the root
// label).
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

// TestGMFrontierExpandsOnlyInternalNodes pins what each round pulls: the
// neighbourhoods of the matches of pattern nodes that have children, and
// nothing else.
func TestGMFrontierExpandsOnlyInternalNodes(t *testing.T) {
	g := pinnedGraph(t) // labels cycle over {0..3}

	t.Run("figure", func(t *testing.T) {
		// Level 1 is b (label 1, a leaf) and c (label 2, expanding): round 2
		// pulls ∪ adj(c-matches), a strict subset of the ∪ adj(b- and
		// c-matches) the map-based frontier pulled.
		a, narrower := NewGraphMatch(FigurePattern()), 0
		g.ForEach(func(v *graph.Vertex) bool {
			task := gmSeedTask(a, v)
			if task == nil {
				return true
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
		if narrower == 0 {
			t.Fatal("no task's frontier shrank: the workload does not exercise the leaf")
		}
	})

	t.Run("star", func(t *testing.T) {
		// Every non-root node is a leaf: one round, then the count.
		p := MustPattern([]int32{0, 1, 1, 2}, []int{-1, 0, 0, 0})
		a, total := NewGraphMatch(p), int64(0)
		g.ForEach(func(v *graph.Vertex) bool {
			if task := gmSeedTask(a, v); task != nil {
				next, agg := gmRound(g, a, task)
				if next != nil {
					t.Fatalf("root %d: star pattern asked for a second round (%d candidates)", v.ID, len(next))
				}
				total += agg
			}
			return true
		})
		if want := RefMatchCount(g, p); total != want || want == 0 {
			t.Fatalf("star count %d, reference %d", total, want)
		}
	})

	t.Run("path", func(t *testing.T) {
		// Depth 4, every node but the last expanding: every level pulls the
		// neighbourhoods of exactly its own label's matches.
		labels := []int32{0, 1, 2, 3, 0}
		p := PathPattern(labels...)
		a, finished, total := NewGraphMatch(p), 0, int64(0)
		g.ForEach(func(v *graph.Vertex) bool {
			task := gmSeedTask(a, v)
			if task == nil {
				return true
			}
			for {
				frontier := task.Cands
				next, agg := gmRound(g, a, task)
				total += agg
				if next == nil {
					if task.Round == p.Depth() {
						finished++
					}
					return true
				}
				if task.Round >= p.Depth() {
					t.Fatalf("root %d: round %d of a depth-%d pattern pulled", v.ID, task.Round, p.Depth())
				}
				if want := unionAdj(g, frontier, labels[task.Round]); !slices.Equal(next, want) {
					t.Fatalf("root %d round %d: pulled %v, want %v", v.ID, task.Round, next, want)
				}
				task.Advance(next)
			}
		})
		if want := RefMatchCount(g, p); total != want || finished == 0 {
			t.Fatalf("path count %d, reference %d, %d tasks reached the last level", total, want, finished)
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

// gmRepeatRound returns a function that re-runs round `round` of the
// hub-rooted Figure-1 task on g: Update opens its level's nodes afresh, so
// one task state serves every repetition.
func gmRepeatRound(g *graph.Graph, round int) func() {
	a := NewGraphMatch(FigurePattern())
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

// TestGMUpdateAllocsBounded pins the allocations of one round: a leaf's
// counters, the copy Pull takes of the frontier, the boxed count — and no
// per-match or per-candidate allocation, so a map cannot creep back in
// (the map-based context allocated thousands of times a round here).
func TestGMUpdateAllocsBounded(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 30_000, Seed: 42})
	gen.DealLabels(g, 7)
	for round := 1; round <= 2; round++ {
		run := gmRepeatRound(g, round)
		run() // grow the task's slices and the pooled scratch once
		if allocs := testing.AllocsPerRun(20, run); allocs > 8 {
			t.Errorf("round %d: %.0f allocations per Update, want at most 8", round, allocs)
		}
	}
}

// BenchmarkGMUpdateRounds times the two rounds of the hub-rooted Figure-1
// task on the benchmark's graph — the largest single Update calls of a
// batch-gm-compute job.
func BenchmarkGMUpdateRounds(b *testing.B) {
	g := gmBenchGraph()
	for round, name := range map[int]string{1: "round1", 2: "round2"} {
		b.Run(name, func(b *testing.B) {
			run := gmRepeatRound(g, round)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// gmContextSamples returns encoded contexts of real tasks between rounds 1
// and 2, for two patterns (so both node kinds and several shapes appear).
func gmContextSamples(tb testing.TB, a *GraphMatch) [][]byte {
	g := pinnedGraph(tb)
	var out [][]byte
	g.ForEach(func(v *graph.Vertex) bool {
		if task := gmSeedTask(a, v); task != nil && len(out) < 8 {
			if next, _ := gmRound(g, a, task); next != nil {
				w := wire.NewWriter(64)
				a.EncodeContext(w, task.Context)
				out = append(out, w.Bytes())
			}
		}
		return true
	})
	if len(out) == 0 {
		tb.Fatal("no task survived round 1")
	}
	return out
}

// TestGMContextCodec: a context crosses the wire unchanged and the task
// finishes with the same count; the map-based encoding this format
// replaced, a foreign pattern's context and a truncated one are wire
// errors.
func TestGMContextCodec(t *testing.T) {
	g := pinnedGraph(t)
	a := NewGraphMatch(FigurePattern())
	var direct, carried int64
	g.ForEach(func(v *graph.Vertex) bool {
		task := gmSeedTask(a, v)
		if task == nil {
			return true
		}
		next, _ := gmRound(g, a, task)
		if next == nil {
			return true
		}
		w := wire.NewWriter(64)
		a.EncodeContext(w, task.Context)
		r := wire.NewReader(w.Bytes())
		decoded := a.DecodeContext(r)
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("root %d: decode: err=%v, %d bytes left", v.ID, r.Err(), r.Remaining())
		}
		if !reflect.DeepEqual(decoded, task.Context) {
			t.Fatalf("root %d: context changed on the wire:\n got %+v\nwant %+v", v.ID, decoded, task.Context)
		}
		twin := &core.Task{Round: task.Round, Context: decoded}
		task.Advance(next)
		twin.Advance(next)
		_, c1 := gmRound(g, a, task)
		_, c2 := gmRound(g, a, twin)
		direct, carried = direct+c1, carried+c2
		return true
	})
	if want := RefMatchCount(g, a.P); direct != want || carried != want {
		t.Fatalf("count %d direct, %d carried across the wire, reference %d", direct, carried, want)
	}

	sample := gmContextSamples(t, a)[0]
	old := wire.NewWriter(16) // the map encoding: matched-node count first
	old.Uvarint(1)
	old.Int(0)
	wire.EncodeIDs(old, []graph.VertexID{5})
	old.Uvarint(0)
	for name, data := range map[string][]byte{
		"map-encoding": old.Bytes(),
		"truncated":    sample[:len(sample)-1],
		"empty":        nil,
	} {
		r := wire.NewReader(data)
		if ctx := a.DecodeContext(r); ctx != nil || !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Errorf("%s: decoded %v, err %v; want nil and wire.ErrCorrupt", name, ctx, r.Err())
		}
	}
	r := wire.NewReader(sample)
	if ctx := NewGraphMatch(PathPattern(0, 1, 2)).DecodeContext(r); ctx != nil || !errors.Is(r.Err(), wire.ErrCorrupt) {
		t.Errorf("foreign pattern: decoded %v, err %v; want nil and wire.ErrCorrupt", ctx, r.Err())
	}
}

// FuzzGMContext: arbitrary bytes never panic the decoder or make it
// allocate beyond the input's size (every length prefix is clamped by
// wire.Reader.Count); whatever decodes is safe to count over, and encoding
// is canonical — decode∘encode is the identity on contexts and
// encode∘decode on the bytes the encoder produces.
func FuzzGMContext(f *testing.F) {
	pats := []*GraphMatch{
		NewGraphMatch(FigurePattern()),
		NewGraphMatch(MustPattern([]int32{0, 1, 1, 2, 3, 1}, []int{-1, 0, 0, 1, 1, 2})),
	}
	for i, a := range pats {
		for _, data := range gmContextSamples(f, a) {
			f.Add(uint8(i), data)
		}
	}
	f.Add(uint8(0), []byte{gmFormat, 5, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge count, no payload
	f.Add(uint8(0), []byte{1, 0, 1, 10, 0})                               // the old encoding
	f.Add(uint8(0), []byte{gmFormat, 5, 0, 0, 0, 0, 0, 0})                // no root match: nothing to count from
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

// TestGMContextIdenticalAcrossArms runs every task of a job three ways in
// lockstep — label-pruned with the position kernels, unpruned with them, and
// Generic — and holds the encoded context of all three byte-identical after
// every round, the pruned arm's candidates to the usable subset of the
// others', and the three counts to the reference. The dense graph's hub
// tasks hold parent lists PosTable marks; the strided copy's spans are past
// its rule, so there the kernels arm is IntersectPos. One arm's task also
// crosses the task codec between rounds — what spill, steal and restore do
// to it — and must not be told apart afterwards.
func TestGMContextIdenticalAcrossArms(t *testing.T) {
	dense := gen.RMAT(gen.RMATConfig{Scale: 11, Edges: 30_000, Seed: 42})
	gen.DealLabels(dense, 5)
	encode := func(a *GraphMatch, task *core.Task) []byte {
		w := wire.NewWriter(64)
		a.EncodeContext(w, task.Context)
		return w.Bytes()
	}
	for name, g := range map[string]*graph.Graph{"dense": dense, "strided": sparseIDs(dense)} {
		for pname, p := range map[string]*Pattern{
			"figure": FigurePattern(),
			"path":   PathPattern(0, 1, 2, 3),
			"twins":  MustPattern([]int32{0, 1, 1, 2, 3}, []int{-1, 0, 0, 1, 2}),
		} {
			pruned, kernel, generic := NewGraphMatch(p), NewGraphMatch(p), NewGraphMatch(p)
			pruned.PruneByLabel(g.LabelColumn())
			generic.Generic = true
			arms := []*GraphMatch{pruned, kernel, generic}
			var counts [3]int64
			longest, dropped := 0, 0
			g.ForEach(func(v *graph.Vertex) bool {
				var tasks [3]*core.Task
				for i, a := range arms {
					tasks[i] = gmSeedTask(a, v)
				}
				for tasks[0] != nil {
					round := max(tasks[1].Round, 1) // the one about to run
					if !slices.Equal(tasks[1].Cands, tasks[2].Cands) {
						t.Fatalf("%s/%s root %d round %d: kernel and generic arms hold different candidates", name, pname, v.ID, round)
					}
					if want := pruned.usable(nil, tasks[1].Cands, round); !slices.Equal(tasks[0].Cands, want) {
						t.Fatalf("%s/%s root %d round %d: pruned arm holds %v, the usable candidates are %v", name, pname, v.ID, round, tasks[0].Cands, want)
					}
					dropped += len(tasks[1].Cands) - len(tasks[0].Cands)
					var next [3][]graph.VertexID
					for i, a := range arms {
						var agg int64
						next[i], agg = gmRound(g, a, tasks[i])
						counts[i] += agg
					}
					ref := encode(kernel, tasks[1])
					if !bytes.Equal(encode(pruned, tasks[0]), ref) || !bytes.Equal(encode(generic, tasks[2]), ref) {
						t.Fatalf("%s/%s root %d round %d: contexts differ between the arms", name, pname, v.ID, round)
					}
					for _, n := range tasks[1].Context.(*gmContext).nodes {
						longest = max(longest, len(n.matches))
					}
					if (next[0] == nil) != (next[1] == nil) && len(pruned.usable(nil, next[1], round+1)) > 0 {
						t.Fatalf("%s/%s root %d round %d: pruned arm ended with usable candidates left", name, pname, v.ID, round)
					}
					if next[1] == nil {
						return true
					}
					for i := range tasks {
						if next[i] == nil { // nothing usable: this arm is done, the others find that out a round later
							tasks[i].Cands, tasks[i].Round = nil, tasks[i].Round+1
							continue
						}
						tasks[i].Advance(next[i])
					}
					// Spill, steal and restore all move a task as these bytes.
					w := wire.NewWriter(256)
					core.EncodeTask(w, tasks[0], pruned)
					moved, err := core.DecodeTask(wire.NewReader(w.Bytes()), pruned)
					if err != nil {
						t.Fatalf("%s/%s root %d: task codec: %v", name, pname, v.ID, err)
					}
					tasks[0] = moved
				}
				return true
			})
			want := RefMatchCount(g, p)
			if counts != [3]int64{want, want, want} || want == 0 {
				t.Errorf("%s/%s: counts %v (pruned, kernel, generic), reference %d", name, pname, counts, want)
			}
			if dropped == 0 || longest < 4*kernels.PosTableMinLen {
				t.Errorf("%s/%s: pruning dropped %d candidates and the longest parent list has %d matches: the arms are not exercised", name, pname, dropped, longest)
			}
		}
	}
}
