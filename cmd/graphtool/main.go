// Command graphtool inspects and converts graph datasets.
//
//	graphtool stats -graph g.txt                  # Table-2 style statistics
//	graphtool hist -graph g.txt                   # degree histogram
//	graphtool convert -graph g.snap -in edges -out-format adj -o g.adj
//	graphtool partition -graph g.txt -workers 8   # edge-cut comparison
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gminer/internal/cli"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/partition"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		graphPath = fs.String("graph", "", "input graph file")
		inFormat  = fs.String("in", "adj", "input format: adj, edges or bin")
		preset    = fs.String("preset", "", "generated preset instead of a file")
		scale     = fs.Float64("scale", 1.0, "preset scale")
		outFormat = fs.String("out-format", "adj", "convert: output format (adj, edges or bin)")
		out       = fs.String("o", "", "convert: output file (default stdout)")
		workers   = fs.Int("workers", 8, "partition: number of parts")
		buckets   = fs.Int("buckets", 20, "hist: histogram rows")
	)
	_ = fs.Parse(os.Args[2:])

	g, dataset, err := cli.LoadGraph(*graphPath, *inFormat, *preset, *scale)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "stats":
		fmt.Println(graph.ComputeStats(dataset, g))
	case "hist":
		hist(g, *buckets)
	case "convert":
		if err := convert(g, *outFormat, *out); err != nil {
			fatal(err)
		}
	case "partition":
		comparePartitioners(g, *workers)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: graphtool {stats|hist|convert|partition} [flags]")
	os.Exit(2)
}

func hist(g *graph.Graph, buckets int) {
	h := gen.DegreeHistogram(g)
	if len(h) == 0 {
		return
	}
	maxDeg := h[len(h)-1][0]
	width := (maxDeg / buckets) + 1
	counts := make([]int, buckets+1)
	for _, dc := range h {
		counts[dc[0]/width] += dc[1]
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	for b, c := range counts {
		if c == 0 {
			continue
		}
		bar := ""
		for i := 0; i < 50*c/peak; i++ {
			bar += "#"
		}
		fmt.Printf("%6d-%-6d %8d %s\n", b*width, (b+1)*width-1, c, bar)
	}
}

func convert(g *graph.Graph, format, out string) error {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return cli.WriteGraph(w, g, format)
}

func comparePartitioners(g *graph.Graph, k int) {
	for _, p := range []partition.Partitioner{partition.Hash{}, partition.BDG{}} {
		start := time.Now()
		a, err := p.Partition(g, k)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		sizes := a.Sizes()
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		fmt.Printf("%-6s k=%d  edge-cut=%.1f%%  sizes=[%d..%d]  time=%v\n",
			p.Name(), k, 100*a.EdgeCut(g), min, max, elapsed.Round(time.Microsecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphtool:", err)
	os.Exit(1)
}
