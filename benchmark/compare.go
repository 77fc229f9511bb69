package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

// sweepFile is one set of runs: for every workload, the values each
// end-to-end metric took over the sweep's seeds.
type sweepFile struct {
	Seeds   []int64                         `json:"seeds"`
	Seconds float64                         `json:"seconds"`
	Values  map[string]map[string][]float64 `json:"values"` // workload -> metric -> one value per seed
}

// runSweep runs every workload n times with tracing off, each time in a
// fresh process and with another seed, and writes the values to path.
func runSweep(n int, firstSeed int64, seconds float64, path string) error {
	if path == "" {
		return fmt.Errorf("-sweep needs -out")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sf := sweepFile{Seconds: seconds, Values: map[string]map[string][]float64{}}
	for i := 0; i < n; i++ {
		sf.Seeds = append(sf.Seeds, firstSeed+int64(i))
	}
	for _, w := range workloads {
		sf.Values[w.name] = map[string][]float64{}
		for _, seed := range sf.Seeds {
			rep, err := runChild(self, w.name, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			for name, m := range rep.Metrics {
				sf.Values[w.name][name] = append(sf.Values[w.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, oneLine(rep))
		}
	}
	buf, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runChild runs one workload in a child process and parses its result
// line, the last line of its standard output.
func runChild(self, workload string, seed int64, seconds float64) (*report, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &rep, nil
}

func oneLine(rep *report) string {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%.4g ", name, rep.Metrics[name].Value)
	}
	fmt.Fprintf(&b, "attempted=%d failed=%d", rep.Attempted, rep.Failed)
	return b.String()
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare judges sweep B against sweep A, one row per (end-to-end
// metric, workload): both medians, the relative difference, the metric's
// bound and both sets' own quartile spread. A pair whose spread exceeds
// the bound is "unresolved", not unchanged; a pair that got worse by more
// than the bound fails the comparison.
func runCompare(args []string, specPath string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark -compare A.json B.json")
	}
	var spec benchmarkSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var a, b sweepFile
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	fmt.Printf("%-20s %-20s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "diff", "bound", "A spread", "B spread", "verdict")
	regressed, unresolved := 0, 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.Values[w.name][m.Name], b.Values[w.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: missing from one of the sweeps", w.name, m.Name)
			}
			ma, _ := median(va)
			mb, _ := median(vb)
			sa, err := quartileSpread(va)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, m.Name, err)
			}
			sb, err := quartileSpread(vb)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, m.Name, err)
			}
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-20s %-20s %12.4f %12.4f %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				w.name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	switch {
	case regressed > 0:
		return fmt.Errorf("%d pair(s) got worse by more than the bound (and %d unresolved)", regressed, unresolved)
	case unresolved > 0:
		return fmt.Errorf("%d pair(s) unresolved: run-to-run spread exceeds the bound", unresolved)
	}
	return nil
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
