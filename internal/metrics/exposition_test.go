package metrics_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/jobspec"
	"gminer/internal/metrics"
	"gminer/internal/server"
	"gminer/internal/trace"
)

// validateProm is a strict validator for the Prometheus text exposition
// format (version 0.0.4); see parseProm. It fails the test on the first
// violation and returns the samples keyed by series as written.
func validateProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// parseProm checks an exposition against the format's rules. Every family
// opens with one HELP line followed by one TYPE line of a known type, each
// appearing once per exposition; every sample belongs to the family opened
// last (histograms and summaries may add their _bucket / _sum / _count
// suffixes); metric and label names are legal, label values quoted with
// only \\, \" and \n escapes; no series repeats; histogram buckets are
// cumulative and end at le="+Inf", which equals _count.
func parseProm(text string) (map[string]float64, error) {
	if !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("exposition does not end in a newline")
	}
	samples := make(map[string]float64)
	seen := make(map[string]bool)
	var family, typ string
	lastBucket := make(map[string]float64) // histogram series (le dropped) → last cumulative count
	infBucket := make(map[string]float64)
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		line, ln := lines[i], i+1
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" || !legalName(parts[2], true) {
				return nil, fmt.Errorf("line %d: malformed HELP %q", ln, line)
			}
			family = parts[2]
			if seen[family] {
				return nil, fmt.Errorf("line %d: second HELP for %s", ln, family)
			}
			seen[family] = true
			if i+1 == len(lines) {
				return nil, fmt.Errorf("line %d: HELP for %s without TYPE", ln, family)
			}
			i++
			tparts := strings.Fields(lines[i])
			if len(tparts) != 4 || tparts[0] != "#" || tparts[1] != "TYPE" || tparts[2] != family {
				return nil, fmt.Errorf("line %d: want TYPE for %s after its HELP, got %q", ln+1, family, lines[i])
			}
			typ = tparts[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: bad metric type %q", ln+1, typ)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: comment %q is not a HELP opening a family", ln, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("line %d: no value in %q", ln, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", ln, valStr, err)
		}
		name, labels, err := parseSeries(series)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", ln, err)
		}
		if family == "" || !belongs(name, family, typ) {
			return nil, fmt.Errorf("line %d: sample %s outside its family (open: %q %s)", ln, name, family, typ)
		}
		if _, dup := samples[series]; dup {
			return nil, fmt.Errorf("line %d: series %s repeated", ln, series)
		}
		samples[series] = val
		if typ != "histogram" {
			continue
		}
		key := family + "{" + dropLabel(labels, "le") + "}"
		switch name {
		case family + "_bucket":
			if val < lastBucket[key] {
				return nil, fmt.Errorf("line %d: %s buckets not cumulative", ln, key)
			}
			lastBucket[key] = val
			if le, _ := labelValue(labels, "le"); le == "+Inf" {
				infBucket[key] = val
			}
		case family + "_count":
			if inf, ok := infBucket[key]; !ok || inf != val {
				return nil, fmt.Errorf("line %d: %s _count %v, +Inf bucket %v (present: %v)", ln, key, val, inf, ok)
			}
		}
	}
	return samples, nil
}

// parseSeries splits `name{k="v",...}` and checks every name and quoting
// rule on the way. Label pairs come back in written order.
func parseSeries(series string) (string, [][2]string, error) {
	open := strings.IndexByte(series, '{')
	if open < 0 {
		if !legalName(series, true) {
			return "", nil, fmt.Errorf("bad metric name %q", series)
		}
		return series, nil, nil
	}
	name, rest := series[:open], series[open+1:]
	if !legalName(name, true) || !strings.HasSuffix(rest, "}") {
		return "", nil, fmt.Errorf("malformed series %q", series)
	}
	rest = strings.TrimSuffix(rest, "}")
	var labels [][2]string
	seen := make(map[string]bool)
	for rest != "" {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			return "", nil, fmt.Errorf("label without quoted value in %q", series)
		}
		lname := rest[:eq]
		if !legalName(lname, false) || seen[lname] {
			return "", nil, fmt.Errorf("bad or repeated label name %q", lname)
		}
		seen[lname] = true
		var v strings.Builder
		j := eq + 2
		for ; j < len(rest) && rest[j] != '"'; j++ {
			if rest[j] == '\\' {
				j++
				switch {
				case j < len(rest) && rest[j] == 'n':
					v.WriteByte('\n')
					continue
				case j < len(rest) && (rest[j] == '\\' || rest[j] == '"'):
				default:
					return "", nil, fmt.Errorf("bad escape in label value of %q", series)
				}
			}
			v.WriteByte(rest[j])
		}
		if j == len(rest) {
			return "", nil, fmt.Errorf("unterminated label value in %q", series)
		}
		labels = append(labels, [2]string{lname, v.String()})
		rest = rest[j+1:]
		if rest != "" {
			if rest[0] != ',' {
				return "", nil, fmt.Errorf("labels not comma-separated in %q", series)
			}
			rest = rest[1:]
		}
	}
	return name, labels, nil
}

func legalName(s string, colon bool) bool {
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9') || (colon && r == ':')
		if !ok {
			return false
		}
	}
	return s != ""
}

func belongs(name, family, typ string) bool {
	switch {
	case name == family:
		return typ != "histogram"
	case typ == "histogram":
		return name == family+"_bucket" || name == family+"_sum" || name == family+"_count"
	case typ == "summary":
		return name == family+"_sum" || name == family+"_count"
	}
	return false
}

func labelValue(labels [][2]string, name string) (string, bool) {
	for _, l := range labels {
		if l[0] == name {
			return l[1], true
		}
	}
	return "", false
}

func dropLabel(labels [][2]string, name string) string {
	var parts []string
	for _, l := range labels {
		if l[0] != name {
			parts = append(parts, l[0]+"="+strconv.Quote(l[1]))
		}
	}
	return strings.Join(parts, ",")
}

// skeleton keeps what an exposition promises its scrapers and drops what
// a run decides: the HELP and TYPE lines in order, and under each family
// every distinct sample name with its label names, in first-seen order.
// Values and label values are gone.
func skeleton(t *testing.T, text string) string {
	t.Helper()
	var b strings.Builder
	seen := make(map[string]bool)
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			b.WriteString(line + "\n")
			continue
		}
		name, labels, err := parseSeries(line[:strings.LastIndexByte(line, ' ')])
		if err != nil {
			t.Fatalf("line %d: %v", ln+1, err)
		}
		names := make([]string, len(labels))
		for i, l := range labels {
			names[i] = l[0]
		}
		shape := name + "{" + strings.Join(names, ",") + "}"
		if !seen[shape] {
			seen[shape] = true
			b.WriteString(shape + "\n")
		}
	}
	return b.String()
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition headers drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestDaemonExpositionGolden pins the daemon's /metrics headers and label
// names after a fixed tc/gm/cd job mix over two tenants.
func TestDaemonExpositionGolden(t *testing.T) {
	g := gen.RMAT(gen.RMATConfig{Scale: 8, Edges: 2500, Seed: 13})
	jobspec.Prepare(g, jobspec.Spec{App: "gm"}.Normalize())
	jobspec.Prepare(g, jobspec.Spec{App: "cd"}.Normalize())
	sess, err := cluster.NewSession(g, cluster.Config{Workers: 2, Threads: 1, CacheCapacity: 512, StoreMemCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sess, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Shutdown() }()

	jobs := []string{
		`{"app":"tc","id":"tc-a","tenant":"alpha"}`,
		`{"app":"gm","id":"gm-b","tenant":"beta"}`,
		`{"app":"cd","id":"cd-a","tenant":"alpha"}`,
	}
	for _, body := range jobs {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %s", body, resp.Status)
		}
	}
	for _, id := range []string{"tc-a", "gm-b", "cd-a"} {
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(ts.URL + "/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st server.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.State == server.StateDone {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	body := scrape(t, ts.URL+"/metrics")
	validateProm(t, body)
	checkGolden(t, "daemon.golden", skeleton(t, body))
}

// TestMonitorExpositionGolden pins the single-job monitor's /metrics
// headers and label names with a tracer attached.
func TestMonitorExpositionGolden(t *testing.T) {
	tr := trace.New(2, 8).Enable()
	h := tr.Handle(0, trace.CompExecutor)
	h.Observe(trace.MetricTaskRound, time.Millisecond)
	h.Event(trace.EvTaskDead, 1)
	mon := metrics.NewMonitor(&fakeSource{snaps: []metrics.Snapshot{{TasksDone: 1}, {TasksDone: 2}}})
	mon.SetTracer(tr)
	addr, err := mon.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()
	runtime.GC()
	body := scrape(t, "http://"+addr+"/metrics")
	validateProm(t, body)
	checkGolden(t, "monitor.golden", skeleton(t, body))
}

// TestPromWriter pins the writer's own rules: label values escape only
// backslash, double quote and newline; Int prints every digit, Float the
// shortest 'g' form; a family with no labels writes no braces.
func TestPromWriter(t *testing.T) {
	var buf strings.Builder
	p := metrics.NewProm(&buf)
	p.Family("x_total", "counter", "A counter.").Int("", 1234567, "a", "q\"b\\c\nd", "n", "1")
	p.Float("", 1234567, "a", "z")
	p.Family("y_seconds", "summary", "A summary.").Float("_sum", 0.25)
	p.Int("_count", 2)
	want := "# HELP x_total A counter.\n# TYPE x_total counter\n" +
		`x_total{a="q\"b\\c\nd",n="1"} 1234567` + "\n" +
		`x_total{a="z"} 1.234567e+06` + "\n" +
		"# HELP y_seconds A summary.\n# TYPE y_seconds summary\ny_seconds_sum 0.25\ny_seconds_count 2\n"
	if buf.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", buf.String(), want)
	}
	samples := validateProm(t, buf.String())
	if len(samples) != 4 {
		t.Fatalf("%d samples, want 4", len(samples))
	}
}

// TestParsePromRejects holds the validator to its rules: each exposition
// below breaks exactly one.
func TestParsePromRejects(t *testing.T) {
	const c = "# HELP a_total A.\n# TYPE a_total counter\n"
	const h = "# HELP h_seconds H.\n# TYPE h_seconds histogram\n"
	for name, text := range map[string]string{
		"no trailing newline":  c + "a_total 1",
		"HELP twice":           c + "a_total 1\n" + c,
		"TYPE without HELP":    "# TYPE a_total counter\na_total 1\n",
		"HELP without TYPE":    "# HELP a_total A.\na_total 1\n",
		"unknown type":         "# HELP a_total A.\n# TYPE a_total meter\n",
		"bare comment":         c + "# a note\n",
		"sample before family": "a_total 1\n",
		"sample of another":    c + "b_total 1\n",
		"series repeated":      c + "a_total{x=\"1\"} 1\na_total{x=\"1\"} 2\n",
		"bad value":            c + "a_total one\n",
		"bad metric name":      c + "a-total 1\n",
		"bad label name":       c + "a_total{1x=\"1\"} 1\n",
		"label repeated":       c + "a_total{x=\"1\",x=\"2\"} 1\n",
		"unquoted label":       c + "a_total{x=1} 1\n",
		"bad escape":           c + "a_total{x=\"\\t\"} 1\n",
		"buckets fall":         h + "h_seconds_bucket{le=\"1\"} 2\nh_seconds_bucket{le=\"+Inf\"} 1\nh_seconds_sum 1\nh_seconds_count 1\n",
		"count without +Inf":   h + "h_seconds_bucket{le=\"1\"} 1\nh_seconds_sum 1\nh_seconds_count 1\n",
		"count off +Inf":       h + "h_seconds_bucket{le=\"+Inf\"} 2\nh_seconds_sum 1\nh_seconds_count 1\n",
		"bare histogram name":  h + "h_seconds 1\n",
	} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
	ok := c + "a_total{x=\"q\\\"\\\\\\n\"} 1\n" + h + "h_seconds_bucket{le=\"1\"} 1\nh_seconds_bucket{le=\"+Inf\"} 2\nh_seconds_sum 1.5\nh_seconds_count 2\n"
	if _, err := parseProm(ok); err != nil {
		t.Fatalf("rejected a well-formed exposition: %v", err)
	}
}
