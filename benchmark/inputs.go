package main

import (
	"math/rand"
	"sort"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/dyngraph"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/server"
)

// rmatSize is one RMAT input: 2^scale vertices, edges drawn before dedup.
type rmatSize struct {
	scale int
	edges int64
}

// sizes fixes every input dimension and repeat count of the benchmark.
// fullSizes is what the benchmark measures; bench_test.go runs the same
// code at smokeSizes so the suite stays inside tier-1's time.
type sizes struct {
	tiny, tc, gm, pull rmatSize
	communities        int
	bridges            int64
	mutationOps        int // ops per mutation batch
	mutationBatches    int // length of the pre-generated mutation stream
	pullCache          int // RCV cache per worker in batch-tc-pull-tcp

	rate       float64   // open-loop arrivals per second
	sloRates   []float64 // traced run: rates probed for the SLO
	sloSeconds float64   // traced run: seconds per probed rate
	tailJobs   int       // traced run: arrivals of the p98 leg
	dynEpochs  int       // traced run: epochs of the dynamic probe

	warmTC, warmGM, warmPull, warmEpochs int // warm-up operations in set-up
	setups                               int // set-ups per run; setup_s is their median
	rungBudget                           time.Duration
}

var fullSizes = sizes{
	tiny:            rmatSize{9, 5_000},
	tc:              rmatSize{16, 1_000_000},
	gm:              rmatSize{14, 250_000},
	pull:            rmatSize{14, 250_000},
	communities:     1024,
	bridges:         10_240,
	mutationOps:     128,
	mutationBatches: 1024,
	pullCache:       256,
	rate:            20,
	sloRates:        []float64{20, 40, 60},
	sloSeconds:      5,
	tailJobs:        500,
	dynEpochs:       40,
	warmTC:          1,
	warmGM:          2,
	warmPull:        2,
	warmEpochs:      3,
	setups:          3,
	rungBudget:      1500 * time.Millisecond,
}

var smokeSizes = sizes{
	tiny:            rmatSize{7, 600},
	tc:              rmatSize{10, 8_000},
	gm:              rmatSize{9, 3_000},
	pull:            rmatSize{9, 3_000},
	communities:     24,
	bridges:         120,
	mutationOps:     16,
	mutationBatches: 64,
	pullCache:       32,
	rate:            200,
	sloRates:        []float64{200},
	sloSeconds:      0.5,
	tailJobs:        500,
	dynEpochs:       4,
	warmTC:          1,
	warmGM:          1,
	warmPull:        1,
	warmEpochs:      1,
	setups:          1,
	rungBudget:      100 * time.Millisecond,
}

// The seed reaches every random draw through one of these offsets, so the
// streams are independent and the same -seed always yields the same run.
const (
	seedGraph    = 0
	seedAttrs    = 2
	seedArrivals = 3
	seedDeltas   = 5
)

// labelAlphabet is the paper's label set {a..g}.
const labelAlphabet = 7

// engineConfig is the fixed engine shape of every run: 2 workers x 1
// thread on the 2-core reference box, gminerd's defaults otherwise.
func engineConfig() cluster.Config {
	return cluster.Config{
		Workers:          2,
		Threads:          1,
		CacheCapacity:    8192,
		StoreMemCapacity: 8192,
		UseLSH:           true,
		Stealing:         true,
	}
}

func rmat(sz rmatSize, seed int64) *graph.Graph {
	return gen.RMAT(gen.RMATConfig{Scale: sz.scale, Edges: sz.edges, Seed: seed + seedGraph})
}

// dealLabels assigns the label alphabet round-robin down the degree
// ranking. The paper labels vertices uniformly at random; on a power-law
// graph that makes the match count (and the job time) swing by more than
// 2x with which label the few hub vertices happen to draw, which would
// drown a 10% bound in seed-to-seed noise. Dealing keeps the marginal
// distribution uniform and gives every label the same degree profile, so
// the seed varies the structure and not the luck of the hubs.
func dealLabels(g *graph.Graph) {
	ids := g.IDs()
	sort.Slice(ids, func(i, j int) bool {
		di, dj := len(g.Vertex(ids[i]).Adj), len(g.Vertex(ids[j]).Adj)
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	for rank, id := range ids {
		g.Vertex(id).Label = int32(rank % labelAlphabet)
	}
}

// annotated returns an RMAT graph carrying both annotation families, so
// tc, gm and cd jobs can all run on it.
func annotated(sz rmatSize, seed int64) *graph.Graph {
	g := rmat(sz, seed)
	dealLabels(g)
	gen.AssignAttrs(g, 5, 10, seed+seedAttrs)
	return g
}

func communityGraph(sz sizes, seed int64) *graph.Graph {
	g, _ := gen.Community(gen.CommunityConfig{
		Communities: sz.communities,
		MinSize:     8,
		MaxSize:     16,
		PIn:         0.7,
		Bridges:     sz.bridges,
		Seed:        seed + seedGraph,
	})
	return g
}

func mutationStream(g *graph.Graph, sz sizes, seed int64) []dyngraph.Batch {
	return gen.Deltas(g, gen.DeltasConfig{Batches: sz.mutationBatches, Ops: sz.mutationOps, Seed: seed + seedDeltas})
}

// arrival is one job of the open loop: when it is due, relative to the
// start of the timed section, and what it asks for.
type arrival struct {
	due time.Duration
	req server.JobRequest
}

// The serving mix: 70% tc, 20% gm, 10% cd; two tenants with a 4:1 weight,
// half the arrivals each; 30% of arrivals repeat one of hotSeeds specs per
// app (result-cache hits), the rest carry a seed nobody used before. The
// mix is dealt, not drawn: every mixBlock consecutive arrivals hold exactly
// 14 tc, 4 gm and 2 cd, 6 hot and 10 per tenant, in a seeded order. Drawing
// each arrival independently would let the compute-bearing share of a
// 240-arrival run swing by several percent with the seed, and cpu_ms_per_op
// with it.
const (
	hotSeeds = 8
	mixBlock = 20
)

var servedApps = []string{"tc", "gm", "cd"}

// arrivalPlan draws the first n arrivals of a Poisson process of the given
// rate (a fixed count, so the sample always supports the percentile it was
// sized for). Spec.Seed does not change what a job computes on an annotated graph, but
// it is part of the result-cache key: that is how the plan decides which
// arrivals may be answered from the cache. A run that drives several
// legs numbers them: each leg draws its own stream and its own block of
// unused seeds.
func arrivalPlan(rate float64, n int, seed int64, leg int) []arrival {
	rng := rand.New(rand.NewSource(seed + seedArrivals + 100*int64(leg)))
	plan := make([]arrival, 0, n)
	unique := 1_000_000 * int64(leg+1)
	var app, hot, tenant []int // this block's deal: a slot's share is its rank in the permutation
	for at := 0.0; len(plan) < n; {
		slot := len(plan) % mixBlock
		if slot == 0 {
			app, hot, tenant = rng.Perm(mixBlock), rng.Perm(mixBlock), rng.Perm(mixBlock)
		}
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		spec := jobspec.Spec{App: "tc", Tenant: "a", Priority: 4}
		switch {
		case app[slot] >= 18:
			spec.App = "cd"
		case app[slot] >= 14:
			spec.App = "gm"
		}
		if tenant[slot] >= mixBlock/2 {
			spec.Tenant, spec.Priority = "b", 1
		}
		if hot[slot] < 6 {
			spec.Seed = 1 + rng.Int63n(hotSeeds)
		} else {
			unique++
			spec.Seed = unique
		}
		plan = append(plan, arrival{due: due, req: server.JobRequest{Spec: spec}})
	}
	return plan
}
