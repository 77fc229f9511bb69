package cli

import (
	"flag"

	"gminer/internal/cluster"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
)

// The flag groups below are the options more than one binary takes. Each is
// declared once, here, so the binaries of one cluster cannot drift apart in
// a name, a default or a meaning. A group registers its flags on fs and
// returns what they set, to call once fs is parsed.

// GraphFlags registers the graph input group: -graph, -format, -preset and
// -scale. Its function loads the graph they name, and its dataset name.
func GraphFlags(fs *flag.FlagSet) func() (*graph.Graph, string, error) {
	path := fs.String("graph", "", "input graph file")
	format := fs.String("format", "adj", "graph file format: adj (adjacency list), edges (SNAP edge list) or bin")
	preset := fs.String("preset", "", "generated dataset preset (skitter-s, orkut-s, btc-s, friendster-s, tencent-s, dblp-s)")
	scale := fs.Float64("scale", 1.0, "preset scale factor")
	return func() (*graph.Graph, string, error) { return LoadGraph(*path, *format, *preset, *scale) }
}

// EngineFlags registers the engine group: -workers, -threads, -partitioner,
// -lsh, -steal, -cache, -store-mem and -spill. Its function builds the
// cluster.Config they set, the partitioner resolved by partition.ByName.
func EngineFlags(fs *flag.FlagSet) func() (cluster.Config, error) {
	workers := fs.Int("workers", 4, "number of workers in the cluster (a coordinator and its workers must agree)")
	threads := fs.Int("threads", 4, "computing threads per worker")
	part := fs.String("partitioner", "bdg", "partitioner: bdg, hash, skewed, blocked (a coordinator and its workers must agree)")
	lsh := fs.Bool("lsh", true, "enable the LSH task priority queue")
	steal := fs.Bool("steal", true, "enable task stealing")
	cache := fs.Int("cache", 8192, "RCV cache capacity (vertices) per worker per job")
	storeMem := fs.Int("store-mem", 8192, "in-memory task store capacity (tasks) per worker per job")
	spill := fs.String("spill", "", "directory under which each worker spills task-store blocks into a subdirectory of its own, removed when the worker ends (default: the system's temporary directory)")
	return func() (cluster.Config, error) {
		p, err := partition.ByName(*part)
		return cluster.Config{Workers: *workers, Threads: *threads, Partitioner: p, UseLSH: *lsh, Stealing: *steal,
			CacheCapacity: *cache, StoreMemCapacity: *storeMem, SpillDir: *spill}, err
	}
}

// WorkloadFlags registers the workload group: -app, -pattern, -minsim,
// -minsize and -split. Its function returns the job they describe.
func WorkloadFlags(fs *flag.FlagSet) func() jobspec.Spec {
	app := fs.String("app", "tc", "application: tc, mcf, gm, cd, gc, gl3, qc, fsm")
	pattern := fs.String("pattern", "", "gm pattern as 'labels;parents', e.g. '0,1,2,1,3;-1,0,0,2,2' (default: Figure 1 pattern)")
	minSim := fs.Float64("minsim", 0.6, "cd/gc/qc attribute similarity threshold")
	minSize := fs.Int("minsize", 4, "cd/gc/qc minimum community/cluster size")
	split := fs.Int("split", 0, "mcf: recursive task split threshold (0=off)")
	return func() jobspec.Spec {
		return jobspec.Spec{App: *app, Pattern: *pattern, MinSim: *minSim, MinSize: *minSize, Split: *split}
	}
}
