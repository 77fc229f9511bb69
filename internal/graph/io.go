package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Text formats.
//
// Plain (non-attributed) format, one vertex per line, mirroring the
// adjacency-list files the paper loads from HDFS:
//
//	id  n1 n2 n3 ...
//
// Attributed format (label + attribute vector + neighbors):
//
//	id \t label \t a1,a2,a3 \t n1 n2 n3 ...
//
// Lines starting with '#' are comments. IDs are external IDs. The reader
// accepts one-sided edge lists; Freeze symmetrizes nothing, so WriteText
// always emits both directions and ReadText adds the reverse edge
// defensively.

// ReadText parses a graph in either text format, auto-detected per line by
// the presence of tabs.
func ReadText(r io.Reader) (*Graph, error) {
	g := New(1024)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "\t") {
			if err := parseAttributedLine(g, line); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		} else {
			if err := parsePlainLine(g, line); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	if err := g.freeze(); err != nil {
		return nil, err
	}
	return g, nil
}

func parsePlainLine(g *Graph, line string) error {
	fields := strings.Fields(line)
	id, err := parseID(fields[0])
	if err != nil {
		return err
	}
	g.AddVertex(id)
	return addNeighbors(g, id, fields[1:])
}

// addNeighbors enters the edges from id to each neighbor ID in fields.
func addNeighbors(g *Graph, id VertexID, fields []string) error {
	for _, f := range fields {
		n, err := parseID(f)
		if err != nil {
			return err
		}
		g.AddEdge(id, n)
	}
	return nil
}

func parseAttributedLine(g *Graph, line string) error {
	parts := strings.Split(line, "\t")
	if len(parts) < 3 {
		return fmt.Errorf("attributed line needs >=3 tab fields, got %d", len(parts))
	}
	id, err := parseID(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	label64, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 32)
	if err != nil {
		return fmt.Errorf("label: %w", err)
	}
	var attrs []int32
	if s := strings.TrimSpace(parts[2]); s != "" && s != "-" {
		for _, a := range strings.Split(s, ",") {
			x, err := strconv.ParseInt(strings.TrimSpace(a), 10, 32)
			if err != nil {
				return fmt.Errorf("attr: %w", err)
			}
			attrs = append(attrs, int32(x))
		}
	}
	v := g.AddVertex(id)
	v.Label = int32(label64)
	v.Attrs = attrs
	if len(parts) >= 4 {
		return addNeighbors(g, id, strings.Fields(parts[3]))
	}
	return nil
}

func parseID(s string) (VertexID, error) {
	x, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("vertex id %q: %w", s, err)
	}
	return VertexID(x), nil
}

// WriteText writes the graph in the attributed format when it carries
// labels or attributes, otherwise in the plain format, naming external IDs.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	attributed := g.Labeled() || g.Attributed()
	var err error
	g.ForEach(func(v *Vertex) bool {
		if attributed {
			attrs := "-"
			if len(v.Attrs) > 0 {
				parts := make([]string, len(v.Attrs))
				for i, a := range v.Attrs {
					parts[i] = strconv.FormatInt(int64(a), 10)
				}
				attrs = strings.Join(parts, ",")
			}
			if _, err = fmt.Fprintf(bw, "%d\t%d\t%s\t", g.External(v.ID), v.Label, attrs); err != nil {
				return false
			}
		} else {
			if _, err = fmt.Fprintf(bw, "%d ", g.External(v.ID)); err != nil {
				return false
			}
		}
		for i, n := range v.Adj {
			if i > 0 {
				if err = bw.WriteByte(' '); err != nil {
					return false
				}
			}
			if _, err = bw.WriteString(strconv.FormatInt(int64(g.External(n)), 10)); err != nil {
				return false
			}
		}
		if err = bw.WriteByte('\n'); err != nil {
			return false
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("graph: write: %w", err)
	}
	return bw.Flush()
}

// LoadFile reads a graph from a text file.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadText(f)
}

// SaveFile writes a graph to a text file.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := WriteText(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
