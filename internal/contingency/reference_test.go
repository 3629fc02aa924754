package contingency

import (
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// The clone-and-resolve references the differential harnesses pin the
// zero-clone sweep paths against (differential_test.go,
// genoutage_diff_test.go, n2_test.go). Each deep-clones or materializes
// the post-outage network and solves it through the general-purpose
// powerflow.Solve, sharing only the scoring rules with production.

// analyzeCloneSweep is the reference N-1 sweep: analyzeOneClone over the
// same outage list Analyze would visit, in order.
func analyzeCloneSweep(n *model.Network, base *powerflow.Result, opts Options) []OutageResult {
	opts.fill()
	branches := opts.Branches
	if branches == nil {
		branches = n.InServiceBranches()
	}
	out := make([]OutageResult, len(branches))
	for i, k := range branches {
		out[i] = *analyzeOneClone(n, base, k, opts)
	}
	return out
}

// analyzeCloneN2 is the reference N-2 verification: analyzePairClone over
// an explicit candidate list, without pre-screening.
func analyzeCloneN2(n *model.Network, base *powerflow.Result, pairs []N2Pair, opts Options) *ResultSet {
	opts.fill()
	rs := &ResultSet{Outages: make([]OutageResult, len(pairs))}
	for i, p := range pairs {
		rs.Outages[i] = *analyzePairClone(n, base, p, opts)
	}
	return rs
}

// analyzeOneClone is the legacy deep-clone implementation, kept verbatim
// as the reference the differential harness pins the fast path against.
func analyzeOneClone(n *model.Network, base *powerflow.Result, k int, opts Options) *OutageResult {
	br := n.Branches[k]
	out := &OutageResult{
		Branch:    k,
		FromBusID: n.Buses[br.From].ID,
		ToBusID:   n.Buses[br.To].ID,
		IsXfmr:    br.IsTransformer,
	}
	post := n.Clone()
	post.Branches[k].InService = false

	// Islanding check first: an outage that splits the grid shes all
	// load outside the slack's island.
	comp, count := post.ConnectedComponents()
	if count > 1 {
		out.Islanded = true
		slackComp := comp[post.SlackBus()]
		for _, l := range post.Loads {
			if l.InService && comp[l.Bus] != slackComp {
				out.LoadShedMW += l.P
			}
		}
		out.Severity = severity(out, opts)
		return out
	}

	pfOpts := powerflow.Options{EnforceQLimits: true, Reorder: opts.Reorder}
	if !opts.NoWarmStart {
		pfOpts.Warm = base.Voltages.Clone()
	}
	res, err := powerflow.Solve(post, pfOpts)
	if err != nil || !res.Converged {
		// Fallback: fast-decoupled is more tolerant of poor starts.
		res, err = powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.FastDecoupled})
	}
	if err != nil || !res.Converged {
		out.Converged = false
		out.LoadShedMW = estimateLoadShed(post)
		out.Severity = severity(out, opts)
		return out
	}
	scoreOutage(out, res, post, k, -1, opts)
	return out
}

// analyzeGenOutageMaterialize is the legacy implementation — view
// materialized into a network, solved through the general-purpose solver —
// kept as the reference the differential harness pins the in-place
// classification path against.
func analyzeGenOutageMaterialize(n *model.Network, g int, opts Options) (*GenOutageResult, error) {
	view := model.NewOutageView(n)
	lost, deficit, err := prepareGenOutage(n, view, g)
	if err != nil {
		return nil, err
	}
	out := &GenOutageResult{
		Gen:              g,
		BusID:            n.Buses[n.Gens[g].Bus].ID,
		LostMW:           lost,
		ReserveDeficitMW: deficit,
	}
	// The outage touches only generation, so Materialize copies the
	// generator slice and shares everything else with the base.
	post := view.Materialize()

	res, err := powerflow.Solve(post, powerflow.Options{EnforceQLimits: true})
	if err != nil || !res.Converged {
		res, err = powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.FastDecoupled})
	}
	if err != nil || !res.Converged {
		out.Converged = false
		out.Severity = out.LostMW + out.ReserveDeficitMW + 50
		return out, nil
	}
	scoreGenOutage(out, res, post, opts)
	return out, nil
}

// analyzePairClone is the brute-force deep-clone reference for a double
// outage, structured like analyzeOneClone: clone, mark both elements out
// (with governor redispatch for mixed pairs), islanding check, warm
// Newton with fast-decoupled fallback. The N-2 differential harness pins
// the zero-clone pair path against it.
func analyzePairClone(n *model.Network, base *powerflow.Result, p N2Pair, opts Options) *OutageResult {
	out := newPairResult(n, p)
	post := n.Clone()
	post.Branches[p.BranchA].InService = false
	if p.BranchB >= 0 {
		post.Branches[p.BranchB].InService = false
	}
	var deficit float64
	if p.Gen >= 0 {
		view := model.NewOutageView(n)
		var err error
		if _, deficit, err = prepareGenOutage(n, view, p.Gen); err != nil {
			// Unreachable (AnalyzeN2 validates); mirror analyzePair's
			// defensive branch-only behavior under the pair identity.
			deficit = 0
		} else {
			post.Gens[p.Gen].InService = false
			for gi := range post.Gens {
				if post.Gens[gi].InService {
					post.Gens[gi].P = view.Gen(gi).P
				}
			}
		}
	}

	comp, count := post.ConnectedComponents()
	if count > 1 {
		out.Islanded = true
		slackComp := comp[post.SlackBus()]
		for _, l := range post.Loads {
			if l.InService && comp[l.Bus] != slackComp {
				out.LoadShedMW += l.P
			}
		}
		out.Severity = severity(out, opts)
		return out
	}

	pfOpts := powerflow.Options{EnforceQLimits: true, Reorder: opts.Reorder}
	if !opts.NoWarmStart {
		pfOpts.Warm = base.Voltages.Clone()
	}
	res, err := powerflow.Solve(post, pfOpts)
	if err != nil || !res.Converged {
		res, err = powerflow.Solve(post, powerflow.Options{Algorithm: powerflow.FastDecoupled})
	}
	if err != nil || !res.Converged {
		out.Converged = false
		out.LoadShedMW = estimateLoadShed(post)
		out.Severity = severity(out, opts) + deficit
		return out
	}
	scoreOutage(out, res, post, p.BranchA, p.BranchB, opts)
	out.Severity += deficit
	return out
}
