package scenario

import (
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// The clone-and-resolve reference backends the differential harnesses pin
// the zero-clone view paths against: cascades, cascade sweeps and Monte
// Carlo draws run the shared drivers (runCascade, sweep, runMC) over
// cloneState, and episodes run the shared step loop over solveStepClone.
// Production code never builds them.

// cascadeClone is the cascadeRunner of the clone backend.
func cascadeClone(c *Ctx, base *powerflow.Result, ev Event, opts Options) *CascadeResult {
	fp := planGenOutages(c.n, ev.Gens)
	return runCascade(c, newCloneState(c.n, ev, fp), fp, base, ev, opts)
}

// cascadeReference is Cascade on the clone backend.
func cascadeReference(n *model.Network, base *powerflow.Result, ev Event, opts Options) *CascadeResult {
	opts.fill()
	return cascadeClone(NewCtx(n, opts.Topology, opts.BaseYbus), base, ev, opts)
}

// cloneState is the reference path: one deep clone per cascade, mutated
// progressively (outages flip InService, redispatch writes P, load scale
// rewrites the load table) and re-solved from scratch per stage.
type cloneState struct {
	n *model.Network
}

func newCloneState(base *model.Network, ev Event, fp fleetPlan) *cloneState {
	n := base.Clone()
	for _, g := range fp.out {
		n.Gens[g].InService = false
	}
	for _, t := range fp.targets {
		n.Gens[t.gen].P = t.p
	}
	if ls := ev.loadScale(); ls != 1 {
		for i := range n.Loads {
			n.Loads[i].P *= ls
			n.Loads[i].Q *= ls
		}
	}
	return &cloneState{n: n}
}

func (s *cloneState) trip(branches []int) {
	for _, k := range branches {
		s.n.Branches[k].InService = false
	}
}

func (s *cloneState) solve(opts powerflow.Options) (*powerflow.Result, error) {
	return powerflow.Solve(s.n, opts)
}

func (s *cloneState) materialize() *model.Network { return s.n }

func (s *cloneState) setGenP(g int, p float64) { s.n.Gens[g].P = p }
func (s *cloneState) inService(g int) bool     { return s.n.Gens[g].InService }
func (s *cloneState) effP(g int) float64       { return s.n.Gens[g].P }

// solveStepClone is the stepSolver of the clone backend: a fresh clone
// per step, mutated to the step's operating point and solved from scratch.
func solveStepClone(c *Ctx, step EpisodeStep, opts powerflow.Options) (*powerflow.Result, error) {
	m := c.n.Clone()
	if ls := stepScale(step); ls != 1 {
		for i := range m.Loads {
			m.Loads[i].P *= ls
			m.Loads[i].Q *= ls
		}
	}
	for g, p := range step.GenP {
		if g >= 0 && g < len(m.Gens) {
			m.Gens[g].P = p
		}
	}
	for _, k := range step.BranchesOut {
		if k >= 0 && k < len(m.Branches) {
			m.Branches[k].InService = false
		}
	}
	return powerflow.Solve(m, opts)
}
