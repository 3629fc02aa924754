package contingency

import (
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// sweepContext is one worker's zero-clone outage-analysis state: a reusable
// OutageView over the shared immutable base network, a ViewSolver whose
// patched Ybus / compiled Jacobian / LU symbolic analysis persist across
// outages, and scratch buffers for the allocation-free islanding check.
// Not safe for concurrent use; Analyze builds one per worker.
type sweepContext struct {
	n     *model.Network
	base  *powerflow.Result
	topo  *model.Topology
	slack int

	solver *powerflow.ViewSolver
	view   *model.OutageView

	comp, stack []int
}

// newSweepContext prepares a worker context. topo must be built from n;
// baseY (optional) is the shared base admittance matrix to value-copy.
func newSweepContext(n *model.Network, base *powerflow.Result, topo *model.Topology, baseY *model.Ybus) *sweepContext {
	ctx := &sweepContext{
		n:     n,
		base:  base,
		topo:  topo,
		slack: n.SlackBus(),
		view:  model.NewOutageView(n),
		comp:  make([]int, len(n.Buses)),
		stack: make([]int, len(n.Buses)),
	}
	// NewViewSolver fails only on a network without a slack bus, which
	// every entry point rejects before building a context.
	ctx.solver, _ = powerflow.NewViewSolver(n, baseY)
	return ctx
}

// analyze simulates the outage of branch k and scores it on the zero-clone
// path. The differential harness pins it result-for-result against the
// clone-and-resolve reference in reference_test.go.
func (c *sweepContext) analyze(k int, opts Options) *OutageResult {
	br := c.n.Branches[k]
	out := &OutageResult{
		Branch:    k,
		FromBusID: c.n.Buses[br.From].ID,
		ToBusID:   c.n.Buses[br.To].ID,
		IsXfmr:    br.IsTransformer,
	}

	// Islanding check first: an outage that splits the grid sheds all
	// load outside the slack's island. The topology is prebuilt, so this
	// costs one buffer-reusing traversal instead of an adjacency rebuild.
	if count := c.topo.Islands(k, c.comp, c.stack); count > 1 {
		out.Islanded = true
		slackComp := c.comp[c.slack]
		for _, l := range c.n.Loads {
			if l.InService && c.comp[l.Bus] != slackComp {
				out.LoadShedMW += l.P
			}
		}
		out.Severity = severity(out, opts)
		return out
	}

	c.view.Reset()
	c.view.OutBranch(k)
	pfOpts := powerflow.Options{EnforceQLimits: true, Reorder: opts.Reorder}
	if !opts.NoWarmStart {
		pfOpts.Warm = &c.base.Voltages
	}
	res, err := c.solver.Solve(c.view, pfOpts)
	if err != nil || !res.Converged {
		// Fallback: fast-decoupled is more tolerant of poor starts. The
		// materialized overlay serves both the fallback and, if that also
		// fails, the load-shed estimate.
		post := c.view.Materialize()
		res, err = powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.FastDecoupled})
		if err != nil || !res.Converged {
			out.Converged = false
			out.LoadShedMW = estimateLoadShed(post)
			out.Severity = severity(out, opts)
			return out
		}
	}
	scoreOutage(out, res, c.n, k, -1, opts)
	return out
}

// analyzePair simulates the simultaneous outage of two elements — two
// branches, or a branch plus a generator — on the zero-clone path: the
// islanding check removes both branches from the prebuilt topology, the
// view stacks both outages (rank-1 Ybus patches stack the same way inside
// ViewSolver.Solve), and generation-touching pairs ride the solver's
// in-place classification instead of falling back to Materialize. The
// N-2 differential harness pins it against the clone-based pair reference
// in reference_test.go.
func (c *sweepContext) analyzePair(p N2Pair, opts Options) *OutageResult {
	out := newPairResult(c.n, p)

	// Islanding check first, with both branches (for mixed pairs the
	// second skip is −1, removing nothing extra).
	if count := c.topo.Islands2(p.BranchA, p.BranchB, c.comp, c.stack); count > 1 {
		out.Islanded = true
		slackComp := c.comp[c.slack]
		for _, l := range c.n.Loads {
			if l.InService && c.comp[l.Bus] != slackComp {
				out.LoadShedMW += l.P
			}
		}
		out.Severity = severity(out, opts)
		return out
	}

	c.view.Reset()
	c.view.OutBranch(p.BranchA)
	if p.BranchB >= 0 {
		c.view.OutBranch(p.BranchB)
	}
	var deficit float64
	if p.Gen >= 0 {
		var err error
		if _, deficit, err = prepareGenOutage(c.n, c.view, p.Gen); err != nil {
			// Unreachable: AnalyzeN2 validates units up front. Defensively
			// proceed with the surviving branch outage under the pair's own
			// identity — never a record masquerading as a different
			// contingency.
			deficit = 0
		}
	}
	pfOpts := powerflow.Options{EnforceQLimits: true, Reorder: opts.Reorder}
	if !opts.NoWarmStart {
		pfOpts.Warm = &c.base.Voltages
	}
	res, err := c.solver.Solve(c.view, pfOpts)
	if err != nil || !res.Converged {
		post := c.view.Materialize()
		res, err = powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.FastDecoupled})
		if err != nil || !res.Converged {
			out.Converged = false
			out.LoadShedMW = estimateLoadShed(post)
			out.Severity = severity(out, opts) + deficit
			return out
		}
	}
	scoreOutage(out, res, c.n, p.BranchA, p.BranchB, opts)
	out.Severity += deficit
	return out
}
