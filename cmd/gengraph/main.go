// Command gengraph generates synthetic graph datasets in the text
// adjacency-list format the gminer command consumes.
//
// Examples:
//
//	gengraph -preset orkut-s -o orkut.graph
//	gengraph -type rmat -scale-exp 12 -edges 50000 -labels 7 -o g.graph
//	gengraph -type community -communities 50 -o attributed.graph
//
// With -deltas N the tool emits, instead of the graph, a seeded mutation
// stream derived from it: N JSON batch documents, one per line, in the
// format POST /graph/mutations (and `gminer mutate`) consume. The stream
// is a pure function of the graph and -delta-seed, so two runs with the
// same flags replay identically.
//
//	gengraph -type er -vertices 2000 -edges 8000 -deltas 5 -o stream.ndjson
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"gminer/internal/gen"
	"gminer/internal/graph"
)

func main() {
	var (
		preset = flag.String("preset", "", "dataset preset (overrides -type)")
		scale  = flag.Float64("scale", 1.0, "preset scale factor")

		typ      = flag.String("type", "rmat", "generator: rmat, er, community, smallworld")
		scaleExp = flag.Int("scale-exp", 10, "rmat: vertices = 2^scale-exp")
		vertices = flag.Int("vertices", 1024, "er: vertex count")
		edges    = flag.Int64("edges", 8192, "rmat/er: edge count")
		seed     = flag.Int64("seed", 1, "random seed")

		communities = flag.Int("communities", 32, "community: number of communities")
		minSize     = flag.Int("min-size", 8, "community: min community size")
		maxSize     = flag.Int("max-size", 24, "community: max community size")
		pIn         = flag.Float64("p-in", 0.4, "community: intra-community edge probability")
		bridges     = flag.Int64("bridges", 1000, "community: inter-community edges")

		labels   = flag.Int("labels", 0, "assign uniform labels from this alphabet (0=none)")
		deal     = flag.Bool("deal-labels", false, "deal -labels round-robin down the degree ranking instead of drawing them (the benchmark's GM labelling)")
		attrDim  = flag.Int("attr-dim", 0, "assign attribute vectors of this dimension (0=none)")
		attrMax  = flag.Int("attr-max", 10, "attribute value range [1,attr-max]")
		out      = flag.String("o", "", "output file (default stdout)")
		statsFlg = flag.Bool("stats", false, "print Table-2 style statistics to stderr")

		deltas    = flag.Int("deltas", 0, "emit a mutation stream of this many batches instead of the graph (NDJSON, one batch per line)")
		deltaOps  = flag.Int("delta-ops", 32, "mutation ops per batch")
		deltaSeed = flag.Int64("delta-seed", 1, "mutation stream seed (independent of -seed)")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	switch {
	case *preset != "":
		g, err = gen.Build(gen.Preset(*preset), *scale)
	default:
		switch *typ {
		case "rmat":
			g = gen.RMAT(gen.RMATConfig{Scale: *scaleExp, Edges: *edges, Seed: *seed})
		case "er":
			g = gen.ErdosRenyi(*vertices, *edges, *seed)
		case "smallworld":
			g = gen.SmallWorld(gen.SmallWorldConfig{
				N:    *vertices,
				K:    6,
				Beta: 0.1,
				Seed: *seed,
			})
		case "community":
			g, _ = gen.Community(gen.CommunityConfig{
				Communities: *communities,
				MinSize:     *minSize,
				MaxSize:     *maxSize,
				PIn:         *pIn,
				Bridges:     *bridges,
				Seed:        *seed,
			})
		default:
			err = fmt.Errorf("unknown generator %q", *typ)
		}
	}
	if err != nil {
		fatal(err)
	}

	switch {
	case *labels > 0 && *deal:
		gen.DealLabels(g, int32(*labels))
	case *labels > 0:
		gen.AssignLabels(g, int32(*labels), *seed+1)
	}
	if *attrDim > 0 {
		gen.AssignAttrs(g, *attrDim, int32(*attrMax), *seed+2)
	}

	if *statsFlg {
		fmt.Fprintln(os.Stderr, graph.ComputeStats("generated", g))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *deltas > 0 {
		// Mutation-stream mode: the graph built above is the stream's base;
		// a daemon serving the SAME flags' graph replays these batches to
		// reach the same epochs.
		batches := gen.Deltas(g, gen.DeltasConfig{
			Batches: *deltas,
			Ops:     *deltaOps,
			Seed:    *deltaSeed,
		})
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, b := range batches {
			if err := enc.Encode(b); err != nil {
				fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			fatal(err)
		}
		return
	}

	if err := graph.WriteText(w, g); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gengraph:", err)
	os.Exit(1)
}
