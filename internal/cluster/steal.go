package cluster

import "gminer/internal/core"

// stealCostMax is the paper's Tc (Eq. 2): only tasks with
// c(t) = |subG| + |cand| < Tc migrate.
const stealCostMax = 4096

// CostPolicy is the paper's Eq. 2/3 model, which decides which inactive
// tasks may migrate during task stealing (§6.2): migrate t iff
// c(t) = |subG| + |cand| < Tc and lr(t) < Tr.
type CostPolicy struct {
	Tc int
	Tr float64
}

// Eligible reports whether t may be migrated to another worker.
func (p CostPolicy) Eligible(t *core.Task) bool {
	return t.CostC() < p.Tc && t.LocalRate() < p.Tr
}
