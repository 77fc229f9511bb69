package algo

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
)

// oracleCliqueGraph and oracleSearch are the clique search as it ran on
// sorted index lists behind a map from ID to index, before the bit-matrix
// search replaced it. They are kept here as the differential oracle: the
// two must agree on the best size, the members and the number of nodes
// expanded, which pins the visiting order (the CD records under ties and
// the MCF steps at which the global bound is read both depend on it).
type oracleCliqueGraph struct {
	adj [][]int // index → sorted neighbor indices (within the set)
}

func buildOracleCliqueGraph(ids []graph.VertexID, verts []*graph.Vertex) *oracleCliqueGraph {
	cg := &oracleCliqueGraph{adj: make([][]int, len(ids))}
	index := make(map[graph.VertexID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	for i, v := range verts {
		if v == nil {
			continue
		}
		for _, nb := range v.Adj {
			if j, ok := index[nb]; ok && j != i {
				cg.adj[i] = append(cg.adj[i], j)
			}
		}
		sort.Ints(cg.adj[i])
	}
	return cg
}

type oracleSearch struct {
	g     *oracleCliqueGraph
	base  int
	best  int
	bestR []int
	bound func() int
	steps int
}

func (s *oracleSearch) run(candidates []int) (int, []int) {
	s.best = s.base
	if s.bound != nil {
		if b := s.bound(); b > s.best {
			s.best = b
		}
	}
	s.expand(nil, candidates)
	return s.best, s.bestR
}

func (s *oracleSearch) expand(r []int, p []int) {
	if len(p) == 0 {
		if s.base+len(r) > s.best {
			s.best = s.base + len(r)
			s.bestR = append([]int(nil), r...)
		}
		return
	}
	s.steps++
	if s.bound != nil && s.steps%256 == 0 {
		if b := s.bound(); b > s.best {
			s.best = b
		}
	}
	if s.base+len(r)+len(p) <= s.best {
		return
	}
	order, colors := s.color(p)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if s.base+len(r)+colors[i] <= s.best {
			return
		}
		var np []int
		for _, u := range order[:i] {
			if _, ok := slices.BinarySearch(s.g.adj[v], u); ok {
				np = append(np, u)
			}
		}
		s.expand(append(r, v), np)
	}
}

func (s *oracleSearch) color(p []int) (order []int, colors []int) {
	var classes [][]int
	for _, v := range p {
		placed := false
		for c := range classes {
			ok := true
			for _, u := range classes[c] {
				if _, adj := slices.BinarySearch(s.g.adj[v], u); adj {
					ok = false
					break
				}
			}
			if ok {
				classes[c] = append(classes[c], v)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{v})
		}
	}
	for c, class := range classes {
		for _, v := range class {
			order = append(order, v)
			colors = append(colors, c+1)
		}
	}
	return order, colors
}

// cliqueInstance is one search input: a candidate list, its vertices
// (adjacency reaching outside the list, self-loops, nil entries), the
// base and an optional external bound.
type cliqueInstance struct {
	ids   []graph.VertexID
	verts []*graph.Vertex
	base  int
	bound int // -1: no bound; else the first read, and every later read is 2 higher
}

// boundFunc returns the instance's bound as a fresh stateful function, so
// two searches that read it at the same steps see the same values. A bound
// that rises steeply with every refresh prunes a long search soon after it
// is read, so a refresh at another step shows in the step count.
func (in cliqueInstance) boundFunc() func() int {
	if in.bound < 0 {
		return nil
	}
	reads := 0
	return func() int {
		reads++
		return in.bound + 2*(reads-1)
	}
}

// randomCliqueInstance draws an instance of up to maxN candidates with a
// planted clique, strided and gapped IDs, outside neighbours, self-loops
// and (unless symmetric) nil vertices. symmetric instances keep every
// candidate and an undirected adjacency, as the brute-force oracle needs.
func randomCliqueInstance(rng *rand.Rand, maxN int, symmetric bool) cliqueInstance {
	n := rng.Intn(maxN + 1)
	// Denser graphs for small sets; sparse ones keep n = 200 tractable.
	p := 0.1 + rng.Float64()*0.8
	if n > 40 {
		p = 0.05 + rng.Float64()*0.35
	}
	return cliqueInstanceOf(rng, n, p, symmetric)
}

// cliqueInstanceOf draws an instance of n candidates with edge
// probability p.
func cliqueInstanceOf(rng *rand.Rand, n int, p float64, symmetric bool) cliqueInstance {
	idSet := map[graph.VertexID]bool{}
	ids := make([]graph.VertexID, 0, n)
	for len(ids) < n {
		id := graph.VertexID(rng.Intn(8*n + 16))
		if !idSet[id] {
			idSet[id] = true
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	adj := make([]map[graph.VertexID]bool, n)
	for i := range adj {
		adj[i] = map[graph.VertexID]bool{}
	}
	link := func(i, j int) {
		adj[i][ids[j]] = true
		adj[j][ids[i]] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				link(i, j)
			}
		}
	}
	if n > 0 { // a planted clique on a random subset
		k := 1 + rng.Intn(min(n, 12))
		members := rng.Perm(n)[:k]
		for a := range members {
			for b := a + 1; b < len(members); b++ {
				link(members[a], members[b])
			}
		}
	}
	verts := make([]*graph.Vertex, n)
	for i := range verts {
		if !symmetric && rng.Intn(20) == 0 {
			continue // a dangling candidate: nil vertex
		}
		for x := rng.Intn(4); x > 0; x-- { // outside neighbours
			if id := graph.VertexID(rng.Intn(8*n + 32)); !idSet[id] {
				adj[i][id] = true
			}
		}
		if rng.Intn(10) == 0 {
			adj[i][ids[i]] = true // a self-loop stays out of the search
		}
		v := &graph.Vertex{ID: ids[i]}
		for id := range adj[i] {
			v.Adj = append(v.Adj, id)
		}
		slices.Sort(v.Adj)
		verts[i] = v
	}
	bound := -1
	if rng.Intn(3) == 0 {
		bound = rng.Intn(6)
	}
	return cliqueInstance{ids: ids, verts: verts, base: 1 + rng.Intn(3), bound: bound}
}

type cliqueOutcome struct {
	best    int
	members []int
	steps   int
}

func runOracle(in cliqueInstance) cliqueOutcome {
	all := make([]int, len(in.ids))
	for i := range all {
		all[i] = i
	}
	s := &oracleSearch{g: buildOracleCliqueGraph(in.ids, in.verts), base: in.base, bound: in.boundFunc()}
	best, members := s.run(all)
	return cliqueOutcome{best: best, members: members, steps: s.steps}
}

func runBitSearch(in cliqueInstance) cliqueOutcome {
	s := cliqueSearches.Get().(*cliqueSearch)
	defer cliqueSearches.Put(s)
	s.induce(in.ids, in.verts)
	best := s.run(in.base, in.boundFunc())
	out := cliqueOutcome{best: best, steps: s.steps}
	for _, i := range s.bestR {
		out.members = append(out.members, int(i))
	}
	return out
}

func sameOutcome(a, b cliqueOutcome) bool {
	return a.best == b.best && a.steps == b.steps && slices.Equal(a.members, b.members)
}

// TestCliqueSearchMatchesOracle: the bit-matrix search and the index-list
// search it replaced agree on best size, members and steps over seeded
// instances of up to 200 candidates (rows of up to four words).
func TestCliqueSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	maxNs := []int{8, 24, 64, 130, 200}
	for k := 0; k < 3000; k++ {
		in := randomCliqueInstance(rng, maxNs[k%len(maxNs)], k%7 == 0)
		want, got := runOracle(in), runBitSearch(in)
		if !sameOutcome(want, got) {
			t.Fatalf("instance %d (n=%d base=%d bound=%d): bit search %+v, oracle %+v",
				k, len(in.ids), in.base, in.bound, got, want)
		}
	}
}

// bruteForceClique returns ω, the largest clique of a symmetric instance,
// by checking every subset.
func bruteForceClique(in cliqueInstance) int {
	n := len(in.ids)
	nbr := make([]uint32, n)
	for i, v := range in.verts {
		for j, id := range in.ids {
			if j != i && v.HasNeighbor(id) {
				nbr[i] |= 1 << j
			}
		}
	}
	best := 0
	for set := uint32(0); set < 1<<n; set++ {
		size := bits.OnesCount32(set)
		if size <= best {
			continue
		}
		clique := true
		for rest := set; rest != 0 && clique; rest &= rest - 1 {
			i := bits.TrailingZeros32(rest)
			clique = set&^(1<<i)&^nbr[i] == 0
		}
		if clique {
			best = size
		}
	}
	return best
}

// checkAgainstBruteForce checks a symmetric instance's search outcome: the
// best size is base + ω without a bound and at least that with one (a
// bound prunes only what cannot beat it), and the members form a clique
// — of size ω when there is no bound to beat.
func checkAgainstBruteForce(t *testing.T, in cliqueInstance, got cliqueOutcome) {
	t.Helper()
	omega := bruteForceClique(in)
	if got.best < in.base+omega || in.bound < 0 && (got.best != in.base+omega || len(got.members) != omega) {
		t.Fatalf("n=%d base=%d bound=%d: %+v, brute force ω=%d", len(in.ids), in.base, in.bound, got, omega)
	}
	for a, i := range got.members {
		for _, j := range got.members[a+1:] {
			if !in.verts[i].HasNeighbor(in.ids[j]) {
				t.Fatalf("members %v: %d and %d are not adjacent", got.members, i, j)
			}
		}
	}
}

// TestCliqueSearchBruteForce: on every instance of up to 14 candidates the
// search finds ω, the size of the largest clique over all subsets.
func TestCliqueSearchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for k := 0; k < 600; k++ {
		in := randomCliqueInstance(rng, 14, true)
		in.bound = -1 // ω is only checked exactly without an external bound
		checkAgainstBruteForce(t, in, runBitSearch(in))
	}
}

// FuzzCliqueSearch decodes an instance of up to 40 candidates from the
// input — IDs, edges, nil vertices, base and bound — and checks the search
// against the oracle search and, up to 14 candidates, brute force.
func FuzzCliqueSearch(f *testing.F) {
	f.Add([]byte{5, 1, 0, 0xff, 0x0f, 0xf0, 0xaa})
	f.Add([]byte{14, 2, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{40, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0x55, 0x77})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, base, flags := int(data[0])%41, 1+int(data[1])%3, data[2]
		data = data[3:]
		bit := func(k int) bool { return len(data) > 0 && data[(k/8)%len(data)]>>(k%8)&1 != 0 }
		stride := 1 + graph.VertexID(flags>>4)
		ids := make([]graph.VertexID, n)
		for i := range ids {
			ids[i] = graph.VertexID(i)*stride + 3
		}
		verts := make([]*graph.Vertex, n)
		symmetric := flags&1 == 0
		for i := range verts {
			verts[i] = &graph.Vertex{ID: ids[i]}
		}
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if bit(k) {
					verts[i].Adj = append(verts[i].Adj, ids[j])
					verts[j].Adj = append(verts[j].Adj, ids[i])
				}
				k++
			}
		}
		for i := range verts {
			slices.Sort(verts[i].Adj)
			if !symmetric && bit(k+i*3) && bit(k+i*3+1) {
				verts[i] = nil
			}
		}
		in := cliqueInstance{ids: ids, verts: verts, base: base, bound: -1}
		if flags&2 != 0 {
			in.bound = int(flags>>2) % 8
		}
		want, got := runOracle(in), runBitSearch(in)
		if !sameOutcome(want, got) {
			t.Fatalf("bit search %+v, oracle %+v", got, want)
		}
		if symmetric && n <= 14 {
			checkAgainstBruteForce(t, in, got)
		}
	})
}

// cdGoldenGraphs are the CD golden inputs: the community graph the
// dyn-standing-mix benchmark workload runs on (seed 42) and dblp-s.
func cdGoldenGraphs() map[string]*graph.Graph {
	community, _ := gen.Community(gen.CommunityConfig{
		Communities: 1024, MinSize: 8, MaxSize: 16, PIn: 0.7, Bridges: 10_240, Seed: 42,
	})
	return map[string]*graph.Graph{
		"cd_community_seed42": community,
		"cd_dblp-s":           gen.MustBuild(gen.DBLP, 1),
	}
}

// TestCDRecordsGolden: CD's records on the golden inputs, through the
// sequential reference and through Update, are byte-identical to those the
// index-list search produced. dblp-s's are kept whole
// (testdata/cd_dblp-s.golden); the community graph's 6 353 records are
// kept as their count and SHA-256 (testdata/cd_community_seed42.sha256).
func TestCDRecordsGolden(t *testing.T) {
	for name, g := range cdGoldenGraphs() {
		a := NewCommunityDetect(0, 0)
		for arm, records := range map[string][]string{
			"ref": RefCommunities(g, a),
			"seq": SeqRun(g, a).Records,
		} {
			text := strings.Join(records, "\n") + "\n"
			if whole, err := os.ReadFile("testdata/" + name + ".golden"); err == nil {
				if text != string(whole) {
					t.Errorf("%s/%s: %d records differ from the golden file", name, arm, len(records))
				}
				continue
			}
			digest, err := os.ReadFile("testdata/" + name + ".sha256")
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%d %x\n", len(records), sha256.Sum256([]byte(text)))
			if got != string(digest) {
				t.Errorf("%s/%s: records digest %q, golden %q", name, arm, got, digest)
			}
		}
	}
}

// TestMCFAggregateGolden: MCF's maximum clique size, through Update and
// through the sequential reference, on the CD golden inputs and the two
// densest presets, as the index-list search found it. MCF's records are
// not pinned: which clique a task reports depends on when it reads the
// global bound, which differs between runs of the same build.
func TestMCFAggregateGolden(t *testing.T) {
	graphs := cdGoldenGraphs()
	graphs["orkut-s"] = gen.MustBuild(gen.Orkut, 1)
	graphs["friendster-s"] = gen.MustBuild(gen.Friendster, 1)
	want := map[string]int{"cd_community_seed42": 9, "cd_dblp-s": 5, "orkut-s": 51, "friendster-s": 60}
	for name, g := range graphs {
		if got := SeqRun(g, NewMaxClique()).AggGlobal; got != want[name] {
			t.Errorf("%s: SeqRun aggregate %v, want %d", name, got, want[name])
		}
		if got := RefMaxClique(g); got != want[name] {
			t.Errorf("%s: RefMaxClique %d, want %d", name, got, want[name])
		}
	}
}

// discardEnv is a core.Env that drops records, so a repeated Update
// measures the algorithm's allocations and not a growing record list.
type discardEnv struct{ seqEnv }

func (discardEnv) Emit(string) {}

// cdHeaviestTask returns the CD task of g with the most candidates, and
// its pulled vertices.
func cdHeaviestTask(g *graph.Graph, a *CommunityDetect) (*core.Task, []*graph.Vertex) {
	var best *core.Task
	g.ForEach(func(v *graph.Vertex) bool {
		a.Seed(v, func(t *core.Task) {
			if best == nil || len(t.Cands) > len(best.Cands) {
				best = t
			}
		})
		return true
	})
	cands := make([]*graph.Vertex, len(best.Cands))
	for i, id := range best.Cands {
		cands[i] = g.Vertex(id)
	}
	return best, cands
}

// TestCliqueSearchAllocsBounded pins the allocations of one CD Update that
// emits a community: the filtered candidate lists, the members, the
// community with its seed, and the record — and nothing per branch, so the
// per-branch slices of the index-list search (187 allocations a search on
// BenchmarkCliqueSearch's sets) cannot creep back in.
func TestCliqueSearchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items, so the pooled search reallocates")
	}
	g := cdGoldenGraphs()["cd_community_seed42"]
	a := NewCommunityDetect(0, 0)
	task, cands := cdHeaviestTask(g, a)
	emitted := &seqEnv{g: g}
	a.Update(task, cands, emitted) // also grows the pooled search once
	if len(emitted.records) != 1 {
		t.Fatalf("the task emitted %v, want one community", emitted.records)
	}
	env := &discardEnv{seqEnv{g: g}}
	run := func() { a.Update(task, cands, env) }
	if allocs := testing.AllocsPerRun(50, run); allocs > 8 {
		t.Errorf("%.0f allocations per CD Update (%d candidates), want at most 8", allocs, len(task.Cands))
	}
}

// BenchmarkCliqueSearch times the max-clique search alone on CD-shaped
// instances (4–17 candidates, p = 0.7), as the bit-matrix search and as
// the index-list oracle it replaced.
func BenchmarkCliqueSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	ins := make([]cliqueInstance, 64)
	for i := range ins {
		ins[i] = cliqueInstanceOf(rng, 4+rng.Intn(14), 0.7, true)
		ins[i].base, ins[i].bound = 1, -1
	}
	for _, arm := range []struct {
		name string
		run  func(cliqueInstance) cliqueOutcome
	}{{"bits", func(in cliqueInstance) cliqueOutcome {
		best, _ := SearchMaxClique(in.ids, in.verts, in.base, nil)
		return cliqueOutcome{best: best}
	}}, {"oracle", runOracle}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.run(ins[i%len(ins)])
			}
		})
	}
}
