package jobspec_test

import (
	"strings"
	"testing"

	"gminer/internal/core"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
)

func testGraph() *graph.Graph {
	return gen.RMAT(gen.RMATConfig{Scale: 6, Edges: 300, Seed: 3})
}

func TestBuildAllApps(t *testing.T) {
	g := testGraph()
	for _, app := range jobspec.Apps() {
		spec := jobspec.Spec{App: app}.Normalize()
		jobspec.Prepare(g, spec)
		a, err := jobspec.Build(g, spec)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if a.Name() == "" {
			t.Fatalf("%s: empty algorithm name", app)
		}
	}
}

func TestBuildDoesNotMutate(t *testing.T) {
	g := testGraph() // no labels, no attrs
	if _, err := jobspec.Build(g, jobspec.Spec{App: "gm"}.Normalize()); err == nil {
		t.Fatal("gm on unlabeled graph must fail without Prepare")
	}
	if g.Labeled() {
		t.Fatal("Build mutated the graph (assigned labels)")
	}
	if _, err := jobspec.Build(g, jobspec.Spec{App: "cd"}.Normalize()); err == nil {
		t.Fatal("cd on unattributed graph must fail without Prepare")
	}
	if g.Attributed() {
		t.Fatal("Build mutated the graph (assigned attrs)")
	}
}

func TestValidate(t *testing.T) {
	bad := []jobspec.Spec{
		{App: "nope"},
		{App: "tc", MinSim: 1.5},
		{App: "tc", Pattern: "0,1;-1,0"},   // pattern on non-gm app
		{App: "gm", Pattern: "not-a-spec"}, // malformed
		{App: "tc", Split: -1},
	}
	for _, s := range bad {
		if err := s.Normalize().Validate(); err == nil {
			t.Errorf("spec %+v: expected validation error", s)
		}
	}
	good := jobspec.Spec{App: " TC "}.Normalize()
	if err := good.Validate(); err != nil {
		t.Errorf("normalised tc spec rejected: %v", err)
	}
	if good.App != "tc" {
		t.Errorf("Normalize did not canonicalise App: %q", good.App)
	}
}

func TestParsePattern(t *testing.T) {
	p, err := jobspec.ParsePattern("0,1,2,1,3;-1,0,0,2,2")
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil pattern")
	}
	for _, bad := range []string{"", "0,1", "a,b;-1,0", "0,1;-1,x"} {
		if _, err := jobspec.ParsePattern(bad); err == nil {
			t.Errorf("pattern %q: expected error", bad)
		}
	}
}

func TestUnknownAppErrorListsApps(t *testing.T) {
	err := jobspec.Spec{App: "bogus"}.Normalize().Validate()
	if err == nil || !strings.Contains(err.Error(), "tc") {
		t.Fatalf("error should list valid apps, got: %v", err)
	}
}

// TestPlanDeclarations: every app declares the core.Plan DESIGN.md §12
// lists for it — tc asks for G⁺, gm for the label column, cd and qc a seed
// radius of 1, the other four nothing.
func TestPlanDeclarations(t *testing.T) {
	type declared struct {
		oriented, labels bool
		radius           int
	}
	want := map[string]declared{
		"tc":  {oriented: true},
		"gm":  {labels: true},
		"cd":  {radius: 1},
		"qc":  {radius: 1},
		"mcf": {}, "gc": {}, "gl3": {}, "fsm": {},
	}
	g := testGraph()
	if len(jobspec.Apps()) != len(want) {
		t.Fatalf("apps %v, declarations for %d", jobspec.Apps(), len(want))
	}
	for _, app := range jobspec.Apps() {
		spec := jobspec.Spec{App: app}.Normalize()
		jobspec.Prepare(g, spec)
		a, err := jobspec.Build(g, spec)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		p := core.PlanOf(a)
		got := declared{oriented: p.Oriented != nil, labels: p.Labels != nil, radius: p.SeedRadius}
		if w, ok := want[app]; !ok || got != w {
			t.Errorf("%s: plan declares %+v, want %+v (listed: %v)", app, got, w, ok)
		}
	}
}
