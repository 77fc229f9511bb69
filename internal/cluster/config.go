package cluster

import (
	"time"

	"gminer/internal/cache"
	"gminer/internal/chaos"
	"gminer/internal/graph"
	"gminer/internal/memctl"
	"gminer/internal/partition"
	"gminer/internal/trace"
)

// Config controls a G-Miner job. Zero values are filled by Defaults.
type Config struct {
	// Workers is the number of worker nodes (the paper's slaves).
	Workers int
	// Threads is the number of computing threads per worker (the task
	// executor's thread pool, §4.3).
	Threads int

	// CacheCapacity is the RCV cache size in vertices per worker. It is also
	// the CMQ window: while tasks wait for pulls, the retriever dispatches no
	// more once the vertices pinned in the cache plus those in flight fill it.
	CacheCapacity int
	// CacheShards is the RCV cache shard count per worker (rounded down
	// to a power of two). 1 reproduces the paper's single-lock cache;
	// higher counts let executor threads and the pull-response path work
	// on disjoint shards without contending. Default cache.DefaultShards.
	CacheShards int
	// StoreMemCapacity is the task store's spill threshold: the number of
	// inactive tasks a worker keeps in memory before the store spills
	// blocks to disk. Seeds alone do not cross it: an executor takes a seed
	// range only while the worker's alive tasks are at most half of it,
	// leaving spilling to the tasks the executor produces.
	StoreMemCapacity int
	// StoreBlockCapacity is the number of tasks per spilled block.
	StoreBlockCapacity int
	// SpillDir is where workers spill task blocks: each worker, and each
	// restart of one, makes a directory of its own under it at its first
	// spill and removes it when it ends. Empty means the system's temporary
	// directory.
	SpillDir string

	// UseLSH orders the task priority queue by minhash signatures of
	// to_pull sets (§7). Disabling reproduces Dis-LSH in Figure 12.
	UseLSH bool
	// LSHDims is the signature dimension (default 4).
	LSHDims int

	// Stealing enables dynamic load balancing by task stealing (§6.2).
	Stealing bool

	// CheckpointEvery takes a checkpoint each interval; 0 disables.
	CheckpointEvery time.Duration
	// CheckpointDir stores checkpoint files. Empty: a job that checkpoints
	// keeps them in a temporary directory removed when the job ends.
	CheckpointDir string
	// Resume restores the whole job from the newest committed epoch in
	// CheckpointDir instead of starting from scratch. The manifest's job
	// fingerprint (graph, algorithm, worker count, partitioner) must match
	// or Start refuses. On the goroutine host every launched job resumes
	// (from CheckpointDir/<job ID>); the process host resumes the jobs whose
	// JOBSPECs it finds there (Session.HeldJobs), each at its Launch.
	Resume bool
	// FailTimeout marks a worker dead after this silence; 0 disables
	// failure detection, except on the process host, whose default is 2 s.
	FailTimeout time.Duration

	// Chaos, if non-nil, wraps every node's endpoint with the seeded
	// fault-injection layer (internal/chaos) and executes the profile's
	// crash schedule against live workers, on either transport and either
	// host: worker processes wrap their endpoints with the profile the job
	// start carries.
	Chaos *chaos.Controller

	// Partitioner distributes vertices to workers; default BDG (§6.1).
	Partitioner partition.Partitioner

	// Dynamic enables graph mutations on a session (ApplyMutations and
	// the graph-epoch machinery). Requires the block-decomposable
	// partition.Blocked partitioner — the only one whose incremental
	// re-placement provably equals a from-scratch partition. Single-shot
	// jobs and the process host reject it.
	Dynamic bool
	// Latency and BandwidthBps configure the simulated network.
	Latency      time.Duration
	BandwidthBps int64
	// UseTCP runs the job over real loopback TCP sockets instead of the
	// in-process network: one transport.RemoteNetwork node per worker plus
	// the master, in this process — the stack a multi-process cluster uses.
	UseTCP bool

	// SampleEvery enables utilization timeline sampling (Figures 5–6)
	// with the given period; 0 disables.
	SampleEvery time.Duration

	// Tracer records structured pipeline events and latency histograms
	// (internal/trace). Nil disables all tracing at zero hot-path cost;
	// a constructed-but-disabled tracer costs one atomic load per probe.
	// Create it with trace.New(Workers+1, ...) so the master has a ring.
	Tracer *trace.Tracer

	// BufferFlush is the task-buffer batch size (§4.3: "inserted into the
	// task store in batches").
	BufferFlush int

	// The engine's tuning, filled by Defaults from the constants below. No
	// deployment sets them; a test that must shape a scenario does
	// (export_test.go).
	progressInterval time.Duration
	stealBatch       int
	stealLocalityMax float64
	cpqHighWater     int

	// eagerSeeding, when set (tests only, see export_test.go), lifts the
	// bound on alive tasks from the seed range take, so every seed task that
	// waits for data is generated before processing starts — the paper's
	// behaviour, which §9 lists as an overhead. Otherwise an executor takes
	// a range only while the worker's alive tasks are at most
	// StoreMemCapacity/2. A range waits for room in the CPQ either way.
	eagerSeeding bool

	// seedHold, when set (tests only, see export_test.go), is asked at each
	// seed range take, with the worker's ID and whether the range is its
	// scan's last, and withholds the range while it answers true: a test
	// keeps a job from finishing, however fast it runs, until it lets it.
	seedHold func(worker int, last bool) bool

	// The per-job fields, stamped by Session.build at every launch: the
	// job's ID ("" in single-shot mode), the graph epoch it runs at (folded
	// into the job fingerprint, so a checkpoint never resumes against another
	// epoch's graph), and JobOptions' MemBudgetBytes and RoundHook.
	jobID      string
	graphEpoch int64
	memBudget  *memctl.Budget
	roundHook  func(round int64)

	// seeds, when non-nil, is JobOptions.Seeds as a set: a seed range skips
	// the vertices of its scan that are not in it.
	seeds map[graph.VertexID]struct{}
}

// Engine constants: the values Defaults gives the tuning fields.
const (
	// defaultProgressInterval is the heartbeat: each worker reports, asks to
	// steal when idle, observes memory and ticks its stream once per
	// interval, and the master runs one scheduling round (aggregator sync,
	// checkpoint trigger, failure detection, RoundHook). It is not the
	// latency floor of a job: idle reports, termination probes and buffer
	// flushes are event-driven.
	defaultProgressInterval = 2 * time.Millisecond
	// defaultStealBatch is the floor of Tnum, the number of tasks a MIGRATE
	// asks for: half the gap between the victim's store and the thief's,
	// never under it, and nothing when the gap itself is smaller.
	defaultStealBatch = 32
	// defaultStealLocalityMax is Tr: only tasks with lr(t) < Tr move (Eq. 3).
	// Tc (Eq. 2) is fixed at 4096.
	defaultStealLocalityMax = 0.9
	// cpqDepthPerThread bounds the ready-task computation queue per worker,
	// per executor thread.
	cpqDepthPerThread = 32
)

// Defaults fills unset fields with production defaults.
func (c Config) Defaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 8192
	}
	if c.CacheShards <= 0 {
		c.CacheShards = cache.DefaultShards
	}
	if c.StoreMemCapacity <= 0 {
		c.StoreMemCapacity = 8192
	}
	if c.StoreBlockCapacity <= 0 {
		c.StoreBlockCapacity = c.StoreMemCapacity / 4
	}
	if c.LSHDims <= 0 {
		c.LSHDims = 4
	}
	if c.stealBatch <= 0 {
		c.stealBatch = defaultStealBatch
	}
	if c.stealLocalityMax <= 0 {
		c.stealLocalityMax = defaultStealLocalityMax
	}
	if c.progressInterval <= 0 {
		c.progressInterval = defaultProgressInterval
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.BDG{}
	}
	if c.cpqHighWater <= 0 {
		c.cpqHighWater = cpqDepthPerThread * c.Threads
	}
	if c.BufferFlush <= 0 {
		c.BufferFlush = 64
	}
	return c
}
