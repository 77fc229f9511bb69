// Package gminer is a Go reproduction of G-Miner, the task-oriented
// distributed graph mining system of Chen et al. (EuroSys 2018).
//
// A mining job decomposes into independent tasks, each carrying an
// intermediate subgraph, a candidate vertex list and algorithm context
// (§4.2 of the paper). Per worker, a task pipeline overlaps CPU
// computation, candidate pulling over the network and disk spilling of
// the task store (§4.3), with an LSH-ordered task priority queue and a
// reference-counting vertex cache raising locality (§7). Static load
// balance comes from BDG partitioning (§6.1) and dynamic balance from
// master-mediated task stealing (§6.2).
//
// Quickstart (count triangles on a generated graph):
//
//	g := gen.MustBuild(gen.Skitter, 1.0)
//	res, err := gminer.Run(g, algo.NewTriangleCount(), gminer.Config{
//		Workers: 4, Threads: 4,
//	})
//	fmt.Println(res.AggGlobal) // total triangles
//
// Custom algorithms implement the Algorithm interface: Seed creates tasks
// from local vertices, Update advances a task one round, pulling the next
// round's candidates with Task.Pull. See internal/algo for eight complete
// applications (TC, MCF, GM, CD, GC, GL3, QC, FSM) and examples/customalgo
// for a walkthrough.
package gminer

import (
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/wire"
)

// Core model types (see internal/core).
type (
	// Task is one unit of mining work: subgraph + candidates + context.
	Task = core.Task
	// Subgraph is the intermediate subgraph carried by a task.
	Subgraph = core.Subgraph
	// Algorithm is the user programming framework: Seed + Update + the
	// context codec.
	Algorithm = core.Algorithm
	// Aggregator performs global aggregation across workers.
	Aggregator = core.Aggregator
	// Env is the runtime interface visible to Seed/Update.
	Env = core.Env
	// ContextCodec serializes algorithm-specific task context.
	ContextCodec = core.ContextCodec
	// NoContext is a ContextCodec for context-free algorithms.
	NoContext = core.NoContext
	// WireWriter / WireReader are the binary codec used by ContextCodec
	// and Aggregator implementations.
	WireWriter = wire.Writer
	WireReader = wire.Reader
)

// Graph model types (see internal/graph).
type (
	// Graph is the input graph.
	Graph = graph.Graph
	// Vertex is one vertex with ID, adjacency, label and attributes.
	Vertex = graph.Vertex
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
)

// Runtime types (see internal/cluster).
type (
	// Config controls a job (workers, threads, cache, LSH, stealing, ...).
	Config = cluster.Config
	// Result summarizes a finished job.
	Result = cluster.Result
	// Job is a running job handle.
	Job = cluster.Job
)

// Run executes algo over g with the given configuration and waits for the
// result. Zero-valued Config fields get production defaults.
func Run(g *Graph, algo Algorithm, cfg Config) (*Result, error) {
	return cluster.Run(g, algo, cfg)
}

// Start launches a job without waiting; use Job.Wait for the result.
func Start(g *Graph, algo Algorithm, cfg Config) (*Job, error) {
	return cluster.Start(g, algo, cfg)
}

// NewGraph returns an empty graph with the given capacity hint.
func NewGraph(capacity int) *Graph { return graph.New(capacity) }

// LoadGraph reads a graph from a text adjacency-list file (plain or
// attributed format; see internal/graph).
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }
