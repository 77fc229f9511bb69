package core

import (
	"gminer/internal/graph"
	"gminer/internal/kernels"
	"gminer/internal/wire"
)

// Algorithm is the user-facing programming framework (§5.2, Listing 1).
// The paper's C++ API asks users to subclass Task (update) and Worker
// (vtxParser, init, output); in Go the same contract is one interface plus
// the ContextCodec for task serialization.
type Algorithm interface {
	ContextCodec

	// Name identifies the algorithm in logs and checkpoints.
	Name() string

	// Seed implements init(v): inspect one vertex of the local partition
	// and produce zero or more tasks rooted at it. The runtime streams
	// seeds through the pipeline, so Seed must not retain v; a task may
	// share (never modify) v.Adj, which is immutable while the job runs.
	Seed(v *graph.Vertex, spawn func(*Task))

	// Update implements the per-round update operation: cands[i] is the
	// vertex object for t.Cands[i] (nil if the vertex does not exist in
	// the graph — algorithms must tolerate dangling candidates). cands is
	// the executor's scratch: valid only for the duration of the call, so
	// Update may keep the *graph.Vertex objects it needs but never the
	// slice. Update mutates t.Subgraph / t.Context, emits results via env,
	// and calls t.Pull to continue into the next round; returning without
	// Pull ends the task.
	Update(t *Task, cands []*graph.Vertex, env Env)
}

// Plan is an algorithm's planned path: what it takes from a runtime, beside
// the undirected graph every runtime serves, to mine a job faster. The zero
// Plan is the generic path, the differential baseline: a job that declares
// it is offered nothing and mines the undirected vertex tables.
//
// Contract: a plan changes where exploration starts, what is pulled and how
// intersections run, never what a job outputs. An algorithm's records and
// aggregate are byte-identical whether or not a runtime honours its plan, so
// a runtime that cannot offer a field simply never calls it.
type Plan struct {
	// Oriented, when set, asks to mine G⁺, the degree-oriented view of the
	// job's graph (graph.Orient: every vertex keeps only its neighbours of
	// higher (degree, ID), ID-sorted, so each edge lives in one list). A
	// runtime able to provide the view calls it once, before seeding, with
	// the view of the graph epoch the job runs on and the view's resident
	// core: the forward lists the runtime keeps readable on every worker
	// (graph.HotLists at graph.ResidentBudgetPerVertex) as bit rows
	// (kernels.NewResidentCore), or nil when it offers none. The core
	// mirrors lists of gplus, so the algorithm may count against it in place
	// of reading them. Once it is called the view is the job's graph: every
	// *graph.Vertex the algorithm is handed — by Seed, as an Update
	// candidate, pulled, cached, stolen or restored, and by Env.LocalVertex —
	// is a vertex of gplus, and nothing else about the job changes.
	Oriented func(gplus *graph.Graph, rc *kernels.ResidentCore)
	// Labels, when set, asks for the label column: the label of every vertex
	// of the job's graph, held by every worker beside its owner (adjacency
	// and attributes still move only by pull). A runtime that keeps one calls
	// it once, before seeding, with the lookup for the graph epoch the job
	// runs on: the label of vertex id, and false for an ID the graph has no
	// vertex for. The algorithm may then read a label from it instead of from
	// the pulled vertex, and leave out of a task's candidates every vertex it
	// would read nothing else of.
	Labels func(labelOf func(id graph.VertexID) (label int32, ok bool))
	// SeedRadius, when positive, declares that the records a seed emits are a
	// pure function of the subgraph induced on the vertices within SeedRadius
	// hops of it — those vertices, their labels and attributes, and the edges
	// among them; nothing a task reads through an aggregator, and nothing
	// past the radius. Whether a record is emitted or left to another seed
	// (deduplication) is decided by the same function, per seed, and no
	// record is emitted by two seeds. A runtime holding a job's records may
	// then keep them current under graph mutations by re-mining only the
	// seeds a batch can have reached (the serving layer's standing queries,
	// DESIGN §13). An algorithm that grows without bound (gc), or prunes on a
	// global aggregate (mcf), leaves it 0.
	SeedRadius int
}

// Planner is implemented by algorithms that have a planned path beside their
// generic one. Plan opens a job: a runtime calls it exactly once per job,
// after graph validation and before seeding, and an algorithm value reused
// across jobs starts each one on the undirected graph until a field of the
// returned Plan is called. An algorithm configured generic returns the zero
// Plan.
type Planner interface {
	Plan() Plan
}

// PlanOf opens a job of a and returns its plan: the zero Plan for an
// algorithm that is not a Planner. It is the one way a runtime reads one.
func PlanOf(a Algorithm) Plan {
	if p, ok := a.(Planner); ok {
		return p.Plan()
	}
	return Plan{}
}

// KernelConfigurable is a retired capability: nothing in the engine
// implements or calls it, and it remains only because the benchmark's
// reference oracle (benchmark/oracle.go) still asserts it. Declare a Plan
// instead.
type KernelConfigurable interface {
	ConfigureKernels(csr *kernels.CSR, generic bool)
}

// AggregatorProvider is implemented by algorithms that use global
// aggregation (e.g. MCF's global currently-maximum clique size, §5.1).
type AggregatorProvider interface {
	Aggregator() Aggregator
}

// Aggregator mirrors the paper's Aggregator class: workers fold local task
// context into a partial value; the master periodically merges partials
// and broadcasts the global value back, which Update can read for pruning.
// Implementations must be safe for use from a single worker goroutine at a
// time; the runtime serializes calls per worker instance.
type Aggregator interface {
	// Zero returns the identity partial value.
	Zero() any
	// Add folds a value reported by a task into a partial.
	Add(partial, v any) any
	// Merge combines two partials (also used master-side across workers).
	Merge(a, b any) any
	// Encode / Decode serialize values for aggregator sync messages.
	Encode(w *wire.Writer, v any)
	Decode(r *wire.Reader) any
}

// Env is the runtime interface available to Seed/Update (the paper's
// Worker facilities: output collector, aggregator, local vertex table).
type Env interface {
	// WorkerID returns the executing worker's index in [0, NumWorkers).
	WorkerID() int
	// NumWorkers returns the cluster size (workers, excluding master).
	NumWorkers() int
	// Emit appends a result record to the job output (Worker::output).
	Emit(record string)
	// AggUpdate folds v into the worker's local aggregator partial.
	AggUpdate(v any)
	// AggGlobal returns the last globally synced aggregator value, or the
	// aggregator's zero if no sync has happened yet. The value may lag the
	// true global state — aggregation is periodic, not transactional.
	AggGlobal() any
	// LocalVertex returns the vertex if the worker reads it without a
	// pull — its own partition, or a list the runtime keeps on every worker
	// (never the cache) — else nil. Used by algorithms that need extra
	// neighborhood probes beyond the candidate mechanism.
	LocalVertex(id graph.VertexID) *graph.Vertex
}

// MaxIntAggregator is the "maximum aggregator" the paper describes for
// maximum clique finding: tracks the globally largest int reported.
type MaxIntAggregator struct{}

// Zero implements Aggregator.
func (MaxIntAggregator) Zero() any { return 0 }

// Add implements Aggregator.
func (MaxIntAggregator) Add(partial, v any) any {
	if v.(int) > partial.(int) {
		return v
	}
	return partial
}

// Merge implements Aggregator.
func (a MaxIntAggregator) Merge(x, y any) any { return a.Add(x, y) }

// Encode implements Aggregator.
func (MaxIntAggregator) Encode(w *wire.Writer, v any) { w.Int(v.(int)) }

// Decode implements Aggregator.
func (MaxIntAggregator) Decode(r *wire.Reader) any { return r.Int() }

// SumInt64Aggregator sums int64 values reported by tasks (e.g. the global
// count of matched subgraphs in GM, §5.3).
type SumInt64Aggregator struct{}

// Zero implements Aggregator.
func (SumInt64Aggregator) Zero() any { return int64(0) }

// Add implements Aggregator.
func (SumInt64Aggregator) Add(partial, v any) any { return partial.(int64) + v.(int64) }

// Merge implements Aggregator.
func (SumInt64Aggregator) Merge(x, y any) any { return x.(int64) + y.(int64) }

// Encode implements Aggregator.
func (SumInt64Aggregator) Encode(w *wire.Writer, v any) { w.Varint(v.(int64)) }

// Decode implements Aggregator.
func (SumInt64Aggregator) Decode(r *wire.Reader) any { return r.Varint() }
