package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// ReadEdgeList parses the SNAP-style edge-list format — one "u v" pair
// per line, '#' comments — which is how most public graph datasets (the
// paper's Skitter, Orkut, Friendster downloads included) are distributed.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	g := New(1024)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: need two fields, got %q", lineNo, line)
		}
		u, err := parseID(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %w", lineNo, err)
		}
		v, err := parseID(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %w", lineNo, err)
		}
		g.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	if err := g.freeze(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteEdgeList writes the graph as an edge list of external IDs (each
// undirected edge once, the endpoint with the smaller internal ID first).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.ForEach(func(v *Vertex) bool {
		for _, u := range v.Adj {
			if u > v.ID {
				if _, err = fmt.Fprintf(bw, "%d %d\n", g.External(v.ID), g.External(u)); err != nil {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("graph: write edge list: %w", err)
	}
	return bw.Flush()
}

// LoadEdgeListFile reads an edge-list file.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadEdgeList(f)
}
