// Package cli is what the gminer binaries share at their front door: the
// graph formats and loader behind -graph / -format / -preset / -scale, the
// flag groups the mining binaries register (flags.go), and the preparation
// a resident graph gets before it serves jobs.
package cli

import (
	"fmt"
	"io"

	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
)

// formats maps each graph file format name to its reader and writer.
var formats = map[string]struct {
	load  func(path string) (*graph.Graph, error)
	write func(w io.Writer, g *graph.Graph) error
}{
	"adj":   {graph.LoadFile, graph.WriteText},
	"edges": {graph.LoadEdgeListFile, graph.WriteEdgeList},
	"bin":   {graph.LoadBinaryFile, graph.WriteBinary},
}

const formatNames = "adj, edges or bin"

// LoadGraph loads the file at path in format (adj, edges or bin) or, with
// no path, builds the generated preset at scale. It also returns the
// dataset name the binaries print: the path, else the preset.
func LoadGraph(path, format, preset string, scale float64) (*graph.Graph, string, error) {
	switch {
	case path != "":
		f, ok := formats[format]
		if !ok {
			return nil, "", fmt.Errorf("unknown format %q (want %s)", format, formatNames)
		}
		g, err := f.load(path)
		return g, path, err
	case preset != "":
		g, err := gen.Build(gen.Preset(preset), scale)
		return g, preset, err
	}
	return nil, "", fmt.Errorf("need -graph or -preset")
}

// WriteGraph writes g to w in format (adj, edges or bin).
func WriteGraph(w io.Writer, g *graph.Graph, format string) error {
	f, ok := formats[format]
	if !ok {
		return fmt.Errorf("unknown format %q (want %s)", format, formatNames)
	}
	return f.write(w, g)
}

// PrepareResident annotates a graph that will serve many jobs, once,
// before the first: gm's vertex labels (labels of them), then cd's
// attributes. gminerd and every gminer-worker of its cluster must prepare
// alike, since the annotations feed the join fingerprint.
func PrepareResident(g *graph.Graph, labels int) {
	jobspec.Prepare(g, jobspec.Spec{App: "gm", Labels: int32(labels)}.Normalize())
	jobspec.Prepare(g, jobspec.Spec{App: "cd"}.Normalize())
}
