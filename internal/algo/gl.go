package algo

import (
	"slices"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/wire"
)

// GraphletCensus implements size-3 graphlet counting, the "size-k
// graphlets [2]" member of the paper's subgraph/graphlet enumeration
// category (§4.1): it counts the two connected 3-vertex graphlets —
// triangles and open wedges (paths of length two) — in one pass.
//
// Wedges centered at v are C(deg(v), 2) and need no communication;
// triangles use the same one-pull-round scheme as TC. Each triangle
// closes three wedges, so open wedges = wedges − 3·triangles.
type GraphletCensus struct {
	core.NoContext
}

// NewGraphletCensus returns the GL application.
func NewGraphletCensus() *GraphletCensus { return &GraphletCensus{} }

// Name implements core.Algorithm.
func (*GraphletCensus) Name() string { return "gl3" }

// Census is the aggregate result: connected 3-vertex graphlet counts.
type Census struct {
	Triangles  int64
	OpenWedges int64
}

// censusAggregator sums Census values; OpenWedges carries raw wedge
// counts during the run and is fixed up by Finalize.
type censusAggregator struct{}

// Aggregator implements core.AggregatorProvider.
func (*GraphletCensus) Aggregator() core.Aggregator { return censusAggregator{} }

// Zero implements core.Aggregator.
func (censusAggregator) Zero() any { return Census{} }

// Add implements core.Aggregator.
func (censusAggregator) Add(p, v any) any {
	a, b := p.(Census), v.(Census)
	return Census{Triangles: a.Triangles + b.Triangles, OpenWedges: a.OpenWedges + b.OpenWedges}
}

// Merge implements core.Aggregator.
func (c censusAggregator) Merge(a, b any) any { return c.Add(a, b) }

// Encode implements core.Aggregator.
func (censusAggregator) Encode(w *wire.Writer, v any) {
	cv := v.(Census)
	w.Varint(cv.Triangles)
	w.Varint(cv.OpenWedges)
}

// Decode implements core.Aggregator.
func (censusAggregator) Decode(r *wire.Reader) any {
	return Census{Triangles: r.Varint(), OpenWedges: r.Varint()}
}

// Finalize converts the raw aggregate (triangles, total wedges) into the
// census (triangles, open wedges).
func Finalize(raw Census) Census {
	return Census{
		Triangles:  raw.Triangles,
		OpenWedges: raw.OpenWedges - 3*raw.Triangles,
	}
}

// Seed implements core.Algorithm.
func (*GraphletCensus) Seed(v *graph.Vertex, spawn func(*core.Task)) {
	deg := int64(v.Degree())
	if deg < 2 {
		return
	}
	t := &core.Task{}
	t.Subgraph.AddVertex(v.ID)
	// Stash the wedge count: it is derivable from the seed alone.
	t.Context = Census{OpenWedges: deg * (deg - 1) / 2}
	var cands []graph.VertexID
	for _, u := range v.Adj {
		if u > v.ID {
			cands = append(cands, u)
		}
	}
	t.Cands = cands
	spawn(t)
}

// Update implements core.Algorithm.
func (*GraphletCensus) Update(t *core.Task, cands []*graph.Vertex, env core.Env) {
	out, _ := t.Context.(Census)
	set := t.Cands
	for i, u := range cands {
		if u == nil {
			continue
		}
		uid := t.Cands[i]
		for _, w := range u.Adj {
			if w <= uid {
				continue
			}
			if _, ok := slices.BinarySearch(set, w); ok {
				out.Triangles++
			}
		}
	}
	if out.Triangles > 0 || out.OpenWedges > 0 {
		env.AggUpdate(out)
	}
}

// EncodeContext implements core.ContextCodec.
func (*GraphletCensus) EncodeContext(w *wire.Writer, ctx any) {
	c, _ := ctx.(Census)
	w.Varint(c.Triangles)
	w.Varint(c.OpenWedges)
}

// DecodeContext implements core.ContextCodec.
func (*GraphletCensus) DecodeContext(r *wire.Reader) any {
	return Census{Triangles: r.Varint(), OpenWedges: r.Varint()}
}

// RefCensus is the sequential oracle.
func RefCensus(g *graph.Graph) Census {
	var wedges int64
	g.ForEach(func(v *graph.Vertex) bool {
		d := int64(v.Degree())
		wedges += d * (d - 1) / 2
		return true
	})
	return Finalize(Census{Triangles: RefTriangles(g), OpenWedges: wedges})
}
