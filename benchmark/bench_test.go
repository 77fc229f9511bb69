package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSeed is the seed of the smoke runs; any seed must pass.
const smokeSeed = 7

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// spec mirrors BENCHMARK.json. Decoding rejects unknown keys, so the file
// holds exactly the keys the contract names.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// BENCHMARK.json and the program's own tables must name the same
// workloads and metrics, each once, with the same units.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	if len(s.Paths) != 1 || s.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	seen := map[string]bool{}
	once := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		once(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		once(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s], the program has %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: better=%q bound=%g", m.Name, m.Better, m.Bound)
		}
	}
	if s.EndToEnd[0].Name != "setup_s" || s.EndToEnd[0].Unit != "s" {
		t.Errorf("the first end-to-end metric must be setup_s in s")
	}

	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		once(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s], the program has %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
	}
}

// checkReport asserts a run reported every metric of its table once, with
// its unit, and passed the oracle.
func checkReport(t *testing.T, rep *report, defs []metricDef, nonZero bool) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, table has %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not reported", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s reported in %q, want %q", d.name, m.Unit, d.unit)
		}
		if nonZero && m.Value <= 0 {
			t.Errorf("metric %s = %g, an end-to-end metric is never 0", d.name, m.Value)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("result line: %v", err)
	}
}

// Every workload runs end to end at smoke scale, passes its oracle and
// reports every end-to-end metric.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runEndToEnd(w, smokeSizes, smokeSeed, 600*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd, true)
		})
	}
}

// Every workload's traced run climbs the ladder at smoke scale, passes
// the oracle at every rung, reports every per-layer metric, accounts for
// both top rungs within 5%, and writes a loadable Chrome trace. The runs
// take turns: rungs that share the CPU with another test stop nesting.
func TestTracedSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), w.name+".json")
			rep, err := runTraced(w, smokeSizes, smokeSeed, path)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer, false)
			for _, name := range []string{"ladder.serial_residue", "ladder.parallel_residue"} {
				if r := rep.Metrics[name].Value; r > 0.05 {
					t.Errorf("%s = %.3f, self times must sum to the top rung within 5%%", name, r)
				}
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf, &trace); err != nil {
				t.Fatalf("chrome trace: %v", err)
			}
			if len(trace.TraceEvents) == 0 {
				t.Error("chrome trace has no events")
			}
		})
	}
}

// The seed is the only source of randomness: the same seed draws the same
// graph, mutation stream and arrivals, another seed draws others.
func TestSeedDeterminesInputs(t *testing.T) {
	draw := func(seed int64) string {
		g := annotated(smokeSizes.tiny, seed)
		stream, err := json.Marshal(mutationStream(communityGraph(smokeSizes, seed), smokeSizes, seed)[:2])
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(g.NumEdges(), g.VertexAt(0).Attrs, arrivalPlan(50, 40, seed, 0), string(stream))
	}
	if draw(1) != draw(1) {
		t.Error("the same seed drew different inputs")
	}
	if draw(1) == draw(2) {
		t.Error("different seeds drew the same inputs")
	}
}

// A percentile the sample cannot support is an error, not a number.
func TestPercentileHygiene(t *testing.T) {
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := percentile(vals[:99], 90); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	if _, err := percentile(vals[:100], 90); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if _, err := percentile(vals[:499], 98); err == nil {
		t.Error("p98 of 499 samples accepted")
	}
	if _, err := median(nil); err == nil {
		t.Error("median of nothing accepted")
	}
	if got := summarize("x", "ms", vals); !strings.Contains(got, "p98=") || !strings.Contains(got, "n=500") {
		t.Errorf("summary of 500 samples = %q, want its p98 and n", got)
	}
	if got := summarize("x", "ms", vals[:20]); strings.Contains(got, " p7") || strings.Contains(got, " p9") {
		t.Errorf("summary of 20 samples = %q, want the median alone", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if s, err := quartileSpread(vals[1:11]); err != nil || s != 1 {
		t.Errorf("quartile spread of 1..10 = %g, %v; want (8.25-2.75)/5.5", s, err)
	}
}

// -compare passes equal sweeps, fails a regression beyond the bound and
// calls a pair unresolved when a sweep's own spread exceeds the bound.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, noisy bool) string {
		sf := sweepFile{Values: map[string]map[string][]float64{}}
		for _, w := range workloads {
			sf.Values[w.name] = map[string][]float64{}
			for _, m := range endToEnd {
				vals := make([]float64, 10)
				for i := range vals {
					vals[i] = scale * (100 + float64(i)/10)
					if noisy {
						vals[i] = scale * (100 + 10*float64(i))
					}
				}
				sf.Values[w.name][m.name] = vals
			}
		}
		buf, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, false)
	specPath := filepath.Join("..", "BENCHMARK.json")
	if err := runCompare([]string{base, write("same.json", 1.01, false)}, specPath); err != nil {
		t.Errorf("1%% apart: %v", err)
	}
	if err := runCompare([]string{base, write("slow.json", 1.5, false)}, specPath); err == nil || !strings.Contains(err.Error(), "got worse") {
		t.Errorf("50%% slower: %v", err)
	}
	if err := runCompare([]string{base, write("noisy.json", 1, true)}, specPath); err == nil || !strings.Contains(err.Error(), "unresolved:") {
		t.Errorf("noisy sweep: %v", err)
	}
}
