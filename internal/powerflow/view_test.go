package powerflow_test

import (
	"math"
	"testing"

	"gridmind/internal/cases"
	"gridmind/internal/model"
	"gridmind/internal/powerflow"
)

// TestSolveMatchesReducedNewtonOracle pins one-shot Solve, which runs the
// augmented Newton kernel, against the independent reduced-dimension
// Newton oracle: same convergence, same Newton iteration count (Q-limit
// rounds included), voltages to 1e-9, from the stored and the flat start.
func TestSolveMatchesReducedNewtonOracle(t *testing.T) {
	for _, name := range []string{"case14", "case30", "case57", "case118", "case300"} {
		n := cases.MustLoad(name)
		for _, flat := range []bool{false, true} {
			opts := powerflow.Options{EnforceQLimits: true, FlatStart: flat}
			got, errG := powerflow.Solve(n, opts)
			want, errW := powerflow.ReferenceSolve(n, opts)
			if errG != nil || errW != nil {
				t.Fatalf("%s flat=%v: solve err=%v, oracle err=%v", name, flat, errG, errW)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("%s flat=%v: %d Newton iterations, oracle %d", name, flat, got.Iterations, want.Iterations)
			}
			const tol = 1e-9
			for i := range n.Buses {
				if d := math.Abs(got.Voltages.Vm[i] - want.Voltages.Vm[i]); d > tol {
					t.Fatalf("%s flat=%v bus %d: Vm differs by %.3e", name, flat, i, d)
				}
				if d := math.Abs(got.Voltages.Va[i] - want.Voltages.Va[i]); d > tol {
					t.Fatalf("%s flat=%v bus %d: Va differs by %.3e", name, flat, i, d)
				}
			}
		}
	}
}

// TestViewSolverMatchesCloneSolve is the powerflow half of the
// differential harness: for every non-islanding outage, the zero-clone
// patched-Ybus solve must reproduce the reduced-dimension Newton oracle on
// a cloned post-outage network — voltages and flows — to 1e-9.
func TestViewSolverMatchesCloneSolve(t *testing.T) {
	for _, name := range []string{"case30", "case57"} {
		n := cases.MustLoad(name)
		base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
		if err != nil {
			t.Fatalf("%s: base solve: %v", name, err)
		}
		solver, err := powerflow.NewViewSolver(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		topo := model.NewTopology(n)
		comp := make([]int, len(n.Buses))
		stack := make([]int, len(n.Buses))
		view := model.NewOutageView(n)
		checked := 0
		for k, br := range n.Branches {
			if !br.InService || topo.Islands(k, comp, stack) > 1 {
				continue
			}
			view.Reset()
			view.OutBranch(k)
			opts := powerflow.Options{EnforceQLimits: true, Warm: base.Voltages.Clone()}
			got, errV := solver.Solve(view, opts)
			post := n.Clone()
			post.Branches[k].InService = false
			want, errC := powerflow.ReferenceSolve(post, powerflow.Options{EnforceQLimits: true, Warm: base.Voltages.Clone()})
			if (errV == nil) != (errC == nil) || got.Converged != want.Converged {
				t.Fatalf("%s branch %d: view err=%v conv=%v, clone err=%v conv=%v",
					name, k, errV, got.Converged, errC, want.Converged)
			}
			if !want.Converged {
				continue
			}
			const tol = 1e-9
			for i := range n.Buses {
				if d := math.Abs(got.Voltages.Vm[i] - want.Voltages.Vm[i]); d > tol {
					t.Fatalf("%s branch %d bus %d: Vm differs by %.3e", name, k, i, d)
				}
				if d := math.Abs(got.Voltages.Va[i] - want.Voltages.Va[i]); d > tol {
					t.Fatalf("%s branch %d bus %d: Va differs by %.3e", name, k, i, d)
				}
			}
			for b := range n.Branches {
				g, w := got.Flows[b], want.Flows[b]
				if d := math.Abs(g.FromP-w.FromP) + math.Abs(g.FromQ-w.FromQ) +
					math.Abs(g.ToP-w.ToP) + math.Abs(g.ToQ-w.ToQ); d > 4e-9*math.Max(1, math.Abs(w.FromP)) {
					t.Fatalf("%s branch %d flow on %d differs by %.3e", name, k, b, d)
				}
			}
			checked++
		}
		if checked < 10 {
			t.Fatalf("%s: only %d outages checked", name, checked)
		}
	}
}

// TestViewSolverRestoresBetweenSolves verifies the rank-1 patches leave no
// residue: solving outage A, then the empty view, reproduces the base
// solution exactly.
func TestViewSolverRestoresBetweenSolves(t *testing.T) {
	n := cases.MustLoad("case30")
	base, err := powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := model.NewOutageView(n)
	view.OutBranch(3)
	if _, err := solver.Solve(view, powerflow.Options{EnforceQLimits: true}); err != nil {
		t.Fatal(err)
	}
	view.Reset()
	again, err := solver.Solve(view, powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Buses {
		if math.Abs(again.Voltages.Vm[i]-base.Voltages.Vm[i]) > 1e-12 {
			t.Fatalf("bus %d: base solution not reproduced after patch/restore", i)
		}
	}
}

// TestViewSolverGenChangeFallsBack checks that generation-touching views
// are solved correctly through the materialization fallback.
func TestViewSolverGenChangeFallsBack(t *testing.T) {
	n := cases.MustLoad("case30")
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := model.NewOutageView(n)
	// Nudge one non-slack unit's dispatch; the view now has gen changes.
	gi := -1
	slack := n.SlackBus()
	for g, gen := range n.Gens {
		if gen.InService && gen.Bus != slack {
			gi = g
			break
		}
	}
	if gi < 0 {
		t.Skip("no non-slack generator")
	}
	view.SetGenP(gi, n.Gens[gi].P*0.9)
	got, err := solver.Solve(view, powerflow.Options{EnforceQLimits: true})
	if err != nil || !got.Converged {
		t.Fatalf("gen-change view solve: %v", err)
	}
	want, err := powerflow.Solve(view.Materialize(), powerflow.Options{EnforceQLimits: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Buses {
		if math.Abs(got.Voltages.Vm[i]-want.Voltages.Vm[i]) > 1e-12 {
			t.Fatal("gen-change fallback diverges from direct solve")
		}
	}
}

// TestViewSolverRejectsForeignView guards the base-identity contract.
func TestViewSolverRejectsForeignView(t *testing.T) {
	n := cases.MustLoad("case30")
	solver, err := powerflow.NewViewSolver(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := cases.MustLoad("case30")
	if _, err := solver.Solve(model.NewOutageView(other), powerflow.Options{}); err == nil {
		t.Fatal("expected rejection of a view over a different base")
	}
}
