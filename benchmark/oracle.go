package main

import (
	"fmt"
	"slices"

	"gminer/internal/algo"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/jobspec"
	"gminer/internal/kernels"
	"gminer/internal/plan"
)

// The oracle answers each app twice, by two routes that share no code with
// the cluster runtime — the compiled plan over the CSR index and the
// sequential reference run of the algorithm — and refuses to answer when
// the two disagree. It runs after the timed section, so it never shows in
// setup_s or in the job latencies.

// buildAlgo is the algorithm the daemon would run for app, with the
// kernels wired the way a session wires them.
func buildAlgo(g *graph.Graph, app string, csr *kernels.CSR) (core.Algorithm, error) {
	a, err := jobspec.Build(g, jobspec.Spec{App: app})
	if err != nil {
		return nil, err
	}
	if kc, ok := a.(core.KernelConfigurable); ok {
		kc.ConfigureKernels(csr, false)
	}
	return a, nil
}

// compile returns the execution plan of a counting app.
func compile(app string) (*plan.Plan, error) {
	switch app {
	case "tc":
		return plan.Triangle(), nil
	case "gm":
		p := algo.FigurePattern()
		return plan.Compile(p.Labels, p.Parent)
	}
	return nil, fmt.Errorf("oracle: app %q has no counting plan", app)
}

// execPlan runs a compiled counting plan single-threaded.
func execPlan(csr *kernels.CSR, p *plan.Plan) (int64, error) {
	if p.Mode == plan.ModeHom {
		return plan.HomCount(csr, p)
	}
	return plan.Count(csr, p)
}

// refCount is the reference aggregate of a counting app (tc, gm) on g,
// formatted as the API prints aggregates.
func refCount(g *graph.Graph, app string) (string, error) {
	csr, err := kernels.Build(g)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	p, err := compile(app)
	if err != nil {
		return "", err
	}
	planned, err := execPlan(csr, p)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	a, err := buildAlgo(g, app, csr)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	if seq := algo.SeqRun(g, a).AggGlobal; seq != any(planned) {
		return "", fmt.Errorf("oracle: %s plan says %d, sequential run says %v", app, planned, seq)
	}
	return fmt.Sprint(planned), nil
}

// refRecords is the reference record set of a record-emitting app (cd).
func refRecords(g *graph.Graph, app string) ([]string, error) {
	a, err := buildAlgo(g, app, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return algo.SeqRun(g, a).Records, nil
}

// reference holds the oracle's answers for the apps served on one graph.
type reference struct {
	counts  map[string]string
	records map[string][]string
}

func newReference(g *graph.Graph, apps ...string) (*reference, error) {
	ref := &reference{counts: map[string]string{}, records: map[string][]string{}}
	for _, app := range apps {
		var err error
		if app == "cd" {
			ref.records[app], err = refRecords(g, app)
		} else {
			ref.counts[app], err = refCount(g, app)
		}
		if err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// agrees reports whether a job's output equals the reference.
func (r *reference) agrees(app, aggregate string, records []string) bool {
	if want, ok := r.counts[app]; ok {
		return aggregate == want
	}
	want, ok := r.records[app]
	return ok && slices.Equal(records, want)
}
