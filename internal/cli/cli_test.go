package cli

import (
	"flag"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gminer/internal/cluster"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/partition"
	"gminer/internal/server"
	"gminer/internal/transport"
)

// TestLoadGraph: every format a binary accepts round-trips through the
// loader; an unknown format, and neither a file nor a preset, are errors.
func TestLoadGraph(t *testing.T) {
	g, name, err := LoadGraph("", "adj", "dblp-s", 0.02)
	if err != nil || name != "dblp-s" || g.NumEdges() == 0 {
		t.Fatalf("preset: %v, %q, %v", g, name, err)
	}
	dir := t.TempDir()
	for _, format := range []string{"adj", "edges", "bin"} {
		path := filepath.Join(dir, "g."+format)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteGraph(f, g, format); err != nil {
			t.Fatal(err)
		}
		f.Close()
		back, name, err := LoadGraph(path, format, "ignored-when-a-path-is-given", 1)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if name != path || back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: %q, V %d/%d, E %d/%d", format, name,
				back.NumVertices(), g.NumVertices(), back.NumEdges(), g.NumEdges())
		}
		g.ForEach(func(v *graph.Vertex) bool {
			if w := back.Vertex(v.ID); w == nil || !slices.Equal(v.Adj, w.Adj) {
				t.Fatalf("%s: vertex %d's adjacency did not round-trip", format, v.ID)
			}
			return true
		})
	}
	for _, bad := range []struct{ path, format, preset string }{
		{filepath.Join(dir, "g.adj"), "csv", ""},
		{filepath.Join(dir, "g.adj"), "", ""},
		{"", "adj", ""},
	} {
		if _, _, err := LoadGraph(bad.path, bad.format, bad.preset, 1); err == nil {
			t.Errorf("LoadGraph(%q, %q, %q) accepted", bad.path, bad.format, bad.preset)
		}
	}
	if err := WriteGraph(os.Stdout, g, "csv"); err == nil {
		t.Error("WriteGraph accepted an unknown format")
	}
}

// TestPrepareResident: a resident graph carries gm's labels and cd's
// attributes, and two preparations of one input agree, so a coordinator
// and its workers compute the same fingerprint.
func TestPrepareResident(t *testing.T) {
	a := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 600, Seed: 3})
	b := gen.RMAT(gen.RMATConfig{Scale: 7, Edges: 600, Seed: 3})
	PrepareResident(a, 5)
	PrepareResident(b, 5)
	if !a.Labeled() || !a.Attributed() {
		t.Fatalf("labeled %v, attributed %v", a.Labeled(), a.Attributed())
	}
	a.ForEach(func(v *graph.Vertex) bool {
		w := b.Vertex(v.ID)
		if v.Label != w.Label || !slices.Equal(v.Attrs, w.Attrs) || v.Label < 0 || v.Label >= 5 {
			t.Fatalf("vertex %d: label %d/%d, attrs %v/%v", v.ID, v.Label, w.Label, v.Attrs, w.Attrs)
		}
		return true
	})
}

// TestFlagGroups: each group registers exactly its flags with the defaults
// every binary has always had; every engine flag lands on its
// cluster.Config field, the workload flags on their jobspec.Spec fields, and
// an unknown partitioner is an error.
func TestFlagGroups(t *testing.T) {
	defaults := func(register func(*flag.FlagSet)) map[string]string {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		register(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		return got
	}
	for name, c := range map[string]struct {
		register func(*flag.FlagSet)
		want     map[string]string
	}{
		"graph": {func(fs *flag.FlagSet) { GraphFlags(fs) },
			map[string]string{"graph": "", "format": "adj", "preset": "", "scale": "1"}},
		"engine": {func(fs *flag.FlagSet) { EngineFlags(fs) },
			map[string]string{"workers": "4", "threads": "4", "partitioner": "bdg", "lsh": "true",
				"steal": "true", "cache": "8192", "store-mem": "8192", "spill": ""}},
		"workload": {func(fs *flag.FlagSet) { WorkloadFlags(fs) },
			map[string]string{"app": "tc", "pattern": "", "minsim": "0.6", "minsize": "4", "split": "0"}},
	} {
		if got := defaults(c.register); !maps.Equal(got, c.want) {
			t.Errorf("%s group: flags and defaults %v, want %v", name, got, c.want)
		}
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	engineConfig, workloadSpec := EngineFlags(fs), WorkloadFlags(fs)
	if err := fs.Parse([]string{"-workers", "3", "-threads", "5", "-partitioner", "skewed", "-lsh=false",
		"-steal=false", "-cache", "77", "-store-mem", "99", "-spill", "/spill",
		"-app", "cd", "-pattern", "0,1;-1,0", "-minsim", "0.4", "-minsize", "3", "-split", "8"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := engineConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.Config{Workers: 3, Threads: 5, Partitioner: partition.Skewed{Bias: 0.6}, UseLSH: false,
		Stealing: false, CacheCapacity: 77, StoreMemCapacity: 99, SpillDir: "/spill"}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("engine flags set %+v, want %+v", cfg, want)
	}
	if spec, want := workloadSpec(), (jobspec.Spec{App: "cd", Pattern: "0,1;-1,0", MinSim: 0.4, MinSize: 3, Split: 8}); spec != want {
		t.Fatalf("workload flags set %+v, want %+v", spec, want)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	engineConfig = EngineFlags(fs)
	if err := fs.Parse([]string{"-partitioner", "metis"}); err != nil {
		t.Fatal(err)
	}
	if _, err := engineConfig(); err == nil {
		t.Fatal("an unknown partitioner was accepted")
	}
}

// TestOptionStructs pins how many exported fields the option structs of a
// deployment carry beside cluster.Config (TestConfigDefaults counts that):
// an option has a caller outside the tests, and one that only tests set is
// an unexported hook beside them.
func TestOptionStructs(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(cluster.RemoteSessionConfig{}), 3},
		{reflect.TypeOf(cluster.WorkerOptions{}), 8},
		{reflect.TypeOf(transport.RemoteConfig{}), 6},
		{reflect.TypeOf(server.Config{}), 7},
	} {
		var exported []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				exported = append(exported, f.Name)
			}
		}
		if len(exported) != c.want {
			t.Errorf("%s has %d exported fields, want %d: %v", c.typ, len(exported), c.want, exported)
		}
	}
}
