package exp

import (
	"fmt"
	"text/tabwriter"
	"time"

	"gminer/internal/algo"
	"gminer/internal/baseline"
	"gminer/internal/gen"
	"gminer/internal/graph"
)

// ---------------------------------------------------------------------------
// Table 1: performance of maximum clique finding across systems on Orkut.

// Table1Row is one engine's row.
type Table1Row struct {
	System  string
	Cores   int
	MemGB   float64
	NetGB   float64
	CPUUtil float64
	Time    Cell
	Note    string
}

// Table1Result holds the full table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reproduces Table 1: MCF on orkut-s across the five engines.
func Table1(o Options) (*Table1Result, error) {
	o = o.defaults()
	g, err := gen.Build(gen.Orkut, o.Scale)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	cores := o.Workers * o.Threads

	// Single-threaded baseline (always succeeds, slowly).
	best, st, _ := baseline.Single{}.MCF(g, blConfig(o, 1, 1))
	res.Rows = append(res.Rows, Table1Row{
		System: "single-thread", Cores: 1,
		MemGB: gb(st.PeakMem), CPUUtil: 1.0,
		Time: Cell{Seconds: st.Elapsed.Seconds()},
		Note: fmt.Sprintf("succeed (max clique %d)", best),
	})

	// Arabesque-like.
	_, sa, errA := baseline.Embed{}.MCF(g, blConfig(o, o.Workers, o.Threads))
	res.Rows = append(res.Rows, Table1Row{
		System: baseline.Embed{}.Name(), Cores: cores,
		MemGB: gb(sa.PeakMem), NetGB: gb(sa.NetBytes), CPUUtil: sa.CPUUtil,
		Time: cellFor(errA, sa.Elapsed), Note: noteFor(errA),
	})

	// Giraph-like.
	_, sg, errG := baseline.BSP{}.MCF(g, blConfig(o, o.Workers, o.Threads))
	res.Rows = append(res.Rows, Table1Row{
		System: baseline.BSP{}.Name(), Cores: cores,
		MemGB: gb(sg.PeakMem), NetGB: gb(sg.NetBytes), CPUUtil: sg.CPUUtil,
		Time: cellFor(errG, sg.Elapsed), Note: noteFor(errG),
	})

	// GraphX-like.
	_, sx, errX := baseline.BSP{Dataflow: true}.MCF(g, blConfig(o, o.Workers, o.Threads))
	res.Rows = append(res.Rows, Table1Row{
		System: baseline.BSP{Dataflow: true}.Name(), Cores: cores,
		MemGB: gb(sx.PeakMem), NetGB: gb(sx.NetBytes), CPUUtil: sx.CPUUtil,
		Time: cellFor(errX, sx.Elapsed), Note: noteFor(errX),
	})

	// G-thinker-like.
	_, sb, errB := baseline.Batch{}.Run(g, algo.NewMaxClique(), blConfig(o, o.Workers, o.Threads))
	res.Rows = append(res.Rows, Table1Row{
		System: baseline.Batch{}.Name(), Cores: cores,
		MemGB: gb(sb.PeakMem), NetGB: gb(sb.NetBytes), CPUUtil: sb.CPUUtil,
		Time: cellFor(errB, sb.Elapsed), Note: noteFor(errB),
	})

	// G-Miner.
	gres, cell := gminerRun(g, algo.NewMaxClique(), gmConfig(o, o.Workers, o.Threads), o.Timeout)
	row := Table1Row{System: "g-miner", Cores: cores, Time: cell, Note: noteForCell(cell)}
	if gres != nil {
		row.MemGB = gb(gres.Total.PeakBytes)
		row.NetGB = gb(gres.Total.NetBytes)
		row.CPUUtil = gres.Total.CPUUtil(gres.Elapsed, cores)
	}
	res.Rows = append(res.Rows, row)

	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 1: maximum clique finding on orkut-s")
	fmt.Fprintln(tw, "System\tCores\tMem(GB)\tNet(GB)\tCPU Util\tTime(s)\tNote")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%s\t%s\t%s\n",
			r.System, r.Cores, r.MemGB, r.NetGB, fmtPct(r.CPUUtil), r.Time, r.Note)
	}
	tw.Flush()
	return res, nil
}

func gb(b int64) float64 { return float64(b) / float64(1<<30) }

func noteFor(err error) string {
	switch {
	case err == nil:
		return "succeed"
	case isOOM(err):
		return "OOM"
	default:
		return "timeout"
	}
}

func noteForCell(c Cell) string {
	if c.OK() {
		return "succeed"
	}
	return "timeout"
}

// ---------------------------------------------------------------------------
// Table 2: dataset statistics.

// Table2 prints and returns the Table 2 rows for all six presets.
func Table2(o Options) ([]graph.Stats, error) {
	o = o.defaults()
	var rows []graph.Stats
	for _, p := range gen.Presets() {
		g, err := gen.Build(p, o.Scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, graph.ComputeStats(string(p), g))
	}
	fmt.Fprintln(o.Out, "Table 2: graph datasets (scaled-down synthetic stand-ins)")
	for _, r := range rows {
		fmt.Fprintln(o.Out, "  "+r.String())
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 3: TC and MCF elapsed time across systems and datasets.

// Table3Result maps app → dataset → engine → cell.
type Table3Result struct {
	Engines []string
	// Cells[app][dataset][engineIdx]
	Cells map[string]map[string][]Cell
}

// Table3 reproduces Table 3 over the four non-attributed presets.
func Table3(o Options) (*Table3Result, error) {
	o = o.defaults()
	res := &Table3Result{
		Engines: []string{
			baseline.Embed{}.Name(), baseline.BSP{}.Name(),
			baseline.BSP{Dataflow: true}.Name(), baseline.Batch{}.Name(), "g-miner",
		},
		Cells: map[string]map[string][]Cell{"tc": {}, "mcf": {}},
	}
	for _, p := range gen.NonAttributed() {
		g, err := gen.Build(p, o.Scale)
		if err != nil {
			return nil, err
		}
		bcfg := blConfig(o, o.Workers, o.Threads)

		var tcCells, mcfCells []Cell
		_, s, errE := baseline.Embed{}.TC(g, bcfg)
		tcCells = append(tcCells, cellFor(errE, s.Elapsed))
		_, s, errG := baseline.BSP{}.TC(g, bcfg)
		tcCells = append(tcCells, cellFor(errG, s.Elapsed))
		_, s, errX := baseline.BSP{Dataflow: true}.TC(g, bcfg)
		tcCells = append(tcCells, cellFor(errX, s.Elapsed))
		_, s, errB := baseline.Batch{}.Run(g, algo.NewTriangleCount(), bcfg)
		tcCells = append(tcCells, cellFor(errB, s.Elapsed))
		_, cell := gminerRun(g, algo.NewTriangleCount(), gmConfig(o, o.Workers, o.Threads), o.Timeout)
		tcCells = append(tcCells, cell)
		res.Cells["tc"][string(p)] = tcCells

		_, s, errE = baseline.Embed{}.MCF(g, bcfg)
		mcfCells = append(mcfCells, cellFor(errE, s.Elapsed))
		_, s, errG = baseline.BSP{}.MCF(g, bcfg)
		mcfCells = append(mcfCells, cellFor(errG, s.Elapsed))
		_, s, errX = baseline.BSP{Dataflow: true}.MCF(g, bcfg)
		mcfCells = append(mcfCells, cellFor(errX, s.Elapsed))
		_, s, errB = baseline.Batch{}.Run(g, algo.NewMaxClique(), bcfg)
		mcfCells = append(mcfCells, cellFor(errB, s.Elapsed))
		_, cell = gminerRun(g, algo.NewMaxClique(), gmConfig(o, o.Workers, o.Threads), o.Timeout)
		mcfCells = append(mcfCells, cell)
		res.Cells["mcf"][string(p)] = mcfCells
	}

	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 3: elapsed running time in seconds ('-': timeout; 'x': OOM)")
	fmt.Fprint(tw, "App\tDataset")
	for _, e := range res.Engines {
		fmt.Fprintf(tw, "\t%s", e)
	}
	fmt.Fprintln(tw)
	for _, app := range []string{"tc", "mcf"} {
		for _, p := range gen.NonAttributed() {
			fmt.Fprintf(tw, "%s\t%s", app, p)
			for _, c := range res.Cells[app][string(p)] {
				fmt.Fprintf(tw, "\t%s", c)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	return res, nil
}

// ---------------------------------------------------------------------------
// Table 4: GM — G-Miner vs the G-thinker-like engine in detail.

// Table4Row compares the two engines on one dataset. GatherGB is what the
// label-degree column would cost a cluster that loads only its own
// partition: every worker receives the rows of the vertices it does not own.
type Table4Row struct {
	Dataset     string
	Matched     int64
	GMinerTime  Cell
	BatchTime   Cell
	GMinerCPU   float64
	BatchCPU    float64
	GMinerMemGB float64
	BatchMemGB  float64
	GMinerNetGB float64
	BatchNetGB  float64
	GatherGB    float64
}

// pullingPattern is a(b, c(b, d(e))): its c node has an expanding child, so
// GM pulls c's matches for one round. Figure 1's pattern pulls nothing —
// its c node is leaf-only, counted off the label-degree column — so a table
// of pull traffic runs on this one.
func pullingPattern() *algo.Pattern {
	return algo.MustPattern([]int32{0, 1, 2, 1, 3, 4}, []int{-1, 0, 0, 2, 2, 4})
}

// Table4 reproduces Table 4 on the four labeled presets with
// pullingPattern, whose rows it returns, and prints Figure 1's rows after
// them.
func Table4(o Options) ([]Table4Row, error) {
	o = o.defaults()
	rows, err := table4Rows(o, pullingPattern())
	if err != nil {
		return nil, err
	}
	figure, err := table4Rows(o, algo.FigurePattern())
	if err != nil {
		return nil, err
	}
	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 4: GM — g-miner vs gthinker-like")
	fmt.Fprintln(tw, "Pattern\tDataset\tMatched\tTime g-miner\tTime gthinker\tCPU g-miner\tCPU gthinker\tMem g-miner\tMem gthinker\tNet g-miner\tNet gthinker\tColumn gather")
	for _, set := range []struct {
		name string
		rows []Table4Row
	}{{"a(b,c(b,d(e)))", rows}, {"figure-1", figure}} {
		for _, r := range set.rows {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\t%.3fGB\t%.3fGB\t%.4fGB\t%.4fGB\t%.4fGB\n",
				set.name, r.Dataset, r.Matched, r.GMinerTime, r.BatchTime,
				fmtPct(r.GMinerCPU), fmtPct(r.BatchCPU),
				r.GMinerMemGB, r.BatchMemGB, r.GMinerNetGB, r.BatchNetGB, r.GatherGB)
		}
	}
	tw.Flush()
	return rows, nil
}

// table4Rows runs both engines on pattern p over the labeled presets.
func table4Rows(o Options, p *algo.Pattern) ([]Table4Row, error) {
	var rows []Table4Row
	for _, preset := range gen.NonAttributed() {
		g := buildLabeled(preset, o.Scale)
		row := Table4Row{Dataset: string(preset), GatherGB: gb(int64(o.Workers-1) * labelDegreeBytes(g))}

		gres, cell := gminerRun(g, algo.NewGraphMatch(p), gmConfig(o, o.Workers, o.Threads), o.Timeout)
		row.GMinerTime = cell
		if gres != nil {
			row.Matched, _ = gres.AggGlobal.(int64)
			row.GMinerCPU = gres.Total.CPUUtil(gres.Elapsed, o.Workers*o.Threads)
			row.GMinerMemGB = gb(gres.Total.PeakBytes)
			row.GMinerNetGB = gb(gres.Total.NetBytes)
		}

		bres, bs, errB := baseline.Batch{}.Run(g, algo.NewGraphMatch(p), blConfig(o, o.Workers, o.Threads))
		row.BatchTime = cellFor(errB, bs.Elapsed)
		row.BatchCPU = bs.CPUUtil
		row.BatchMemGB = gb(bs.PeakMem)
		row.BatchNetGB = gb(bs.NetBytes)
		if errB == nil && gres != nil {
			if got, _ := bres.AggGlobal.(int64); got != row.Matched {
				return nil, fmt.Errorf("table4: engines disagree on %s: gminer %d batch %d", preset, row.Matched, got)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// labelDegreeBytes is the size of g's label-degree column.
func labelDegreeBytes(g *graph.Graph) int64 {
	labels := g.LabelColumn()
	labels.Degrees(0) // the first ask cuts it
	return labels.DegreeBytes()
}

// ---------------------------------------------------------------------------
// Table 5: CD and GC on G-Miner (no other engine can run them).

// Table5Row is one dataset's CD/GC outcome.
type Table5Row struct {
	Dataset   string
	CDTime    Cell
	CDMemGB   float64
	CDRecords int
	GCTime    Cell
	GCMemGB   float64
	GCRecords int
	GCSkipped bool // Tencent is excluded from GC, as in the paper
}

// Table5 reproduces Table 5 on the five attributed(-ized) presets.
func Table5(o Options) ([]Table5Row, error) {
	o = o.defaults()
	presets := []gen.Preset{gen.Skitter, gen.Orkut, gen.Friendster, gen.DBLP, gen.Tencent}
	var rows []Table5Row
	for _, preset := range presets {
		g, err := gen.BuildAttributed(preset, o.Scale)
		if err != nil {
			return nil, err
		}
		row := Table5Row{Dataset: string(preset)}

		cd := algo.NewCommunityDetect(0.6, 4)
		cres, cell := gminerRun(g, cd, gmConfig(o, o.Workers, o.Threads), o.Timeout)
		row.CDTime = cell
		if cres != nil {
			row.CDMemGB = gb(cres.Total.PeakBytes)
			row.CDRecords = len(cres.Records)
		}

		if preset == gen.Tencent {
			// "we excluded Tencent for GC because its graph format does
			// not fit the algorithm" — its high-dimensional tag vectors
			// have no shared exemplar dimensioning.
			row.GCSkipped = true
		} else {
			// A softer focus threshold than the defaults: with the
			// synthetic uniform attributes a 0.8 cutoff leaves almost no
			// focus vertices, which would make GC trivially cheap.
			exemplar := g.VertexAt(0).Attrs
			gc := algo.NewGraphCluster([][]int32{exemplar}, 0.55, 0.2, 3)
			gres, cell := gminerRun(g, gc, gmConfig(o, o.Workers, o.Threads), o.Timeout)
			row.GCTime = cell
			if gres != nil {
				row.GCMemGB = gb(gres.Total.PeakBytes)
				row.GCRecords = len(gres.Records)
			}
		}
		rows = append(rows, row)
	}

	tw := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Table 5: CD and GC on g-miner ('~': dataset excluded)")
	fmt.Fprintln(tw, "Dataset\tCD Time(s)\tCD Mem(GB)\tCD results\tGC Time(s)\tGC Mem(GB)\tGC results")
	for _, r := range rows {
		gcTime, gcMem, gcRec := r.GCTime.String(), fmt.Sprintf("%.3f", r.GCMemGB), fmt.Sprintf("%d", r.GCRecords)
		if r.GCSkipped {
			gcTime, gcMem, gcRec = "~", "~", "~"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%d\t%s\t%s\t%s\n",
			r.Dataset, r.CDTime, r.CDMemGB, r.CDRecords, gcTime, gcMem, gcRec)
	}
	tw.Flush()
	return rows, nil
}

var _ = time.Second
