package tools

import (
	"testing"

	"gridmind/internal/contingency"
	"gridmind/internal/engine"
	"gridmind/internal/model"
	"gridmind/internal/session"
)

// sessionWorkload drives one session through the serving hot paths the
// tools use: ACOPF with recovery, base power flow, full N-1 sweep, a
// single-outage query and an N-2-style shared-PTDF options build.
func sessionWorkload(t *testing.T, eng *engine.Engine) {
	t.Helper()
	sess := session.NewWithEngine(nil, eng)
	if _, err := sess.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	sol, _, err := solveWithRecovery(sess, eng)
	if err != nil || !sol.Solved {
		t.Fatalf("acopf: %v", err)
	}
	sess.SetACOPF(sol)
	if _, _, err := ensureCASweep(sess, eng); err != nil {
		t.Fatal(err)
	}
	n, err := sess.Network()
	if err != nil {
		t.Fatal(err)
	}
	base, err := ensureBase(sess, eng)
	if err != nil {
		t.Fatal(err)
	}
	opts := sharedOpts(sess, eng, n, true) // true: force the PTDF build path
	if opts.PTDF == nil {
		t.Fatal("engine did not provide the PTDF factors")
	}
	if r, err := contingency.AnalyzeOne(n, base, n.InServiceBranches()[0], opts); err != nil || r == nil {
		t.Fatalf("AnalyzeOne returned %v, %v", r, err)
	}
}

// TestSecondSessionSharesCompiledArtifacts is the acceptance check for the
// multi-session engine: after a first session compiles everything for a
// case, an identical second session performs ZERO ptdf.Build, zero KKT
// pattern compilations, zero Ybus/topology builds and zero base-PF solves
// — proven by the engine's exact counters, not timings.
func TestSecondSessionSharesCompiledArtifacts(t *testing.T) {
	eng := engine.New()

	sessionWorkload(t, eng)
	first := eng.Stats()
	if first.PTDFBuilds != 1 || first.YbusBuilds != 1 || first.TopoBuilds != 1 {
		t.Fatalf("first session builds ptdf/ybus/topo = %d/%d/%d, want 1/1/1",
			first.PTDFBuilds, first.YbusBuilds, first.TopoBuilds)
	}
	if first.OPFCreates != 1 {
		t.Fatalf("first session created %d KKT contexts, want 1", first.OPFCreates)
	}
	if first.BasePFSolves != 1 {
		t.Fatalf("first session solved %d base power flows, want 1", first.BasePFSolves)
	}

	cloneBase := model.CloneCount()
	sessionWorkload(t, eng)
	second := eng.Stats()

	if second.PTDFBuilds != first.PTDFBuilds {
		t.Fatalf("second session rebuilt PTDF: %d -> %d", first.PTDFBuilds, second.PTDFBuilds)
	}
	if second.YbusBuilds != first.YbusBuilds || second.TopoBuilds != first.TopoBuilds {
		t.Fatalf("second session rebuilt Ybus/topology: %+v -> %+v", first, second)
	}
	if second.OPFCreates != first.OPFCreates {
		t.Fatalf("second session compiled a fresh KKT context: creates %d -> %d",
			first.OPFCreates, second.OPFCreates)
	}
	if second.OPFReuses == first.OPFReuses {
		t.Fatal("second session never checked the pooled KKT context out")
	}
	if second.BasePFSolves != first.BasePFSolves {
		t.Fatalf("second session re-solved the base power flow: %d -> %d",
			first.BasePFSolves, second.BasePFSolves)
	}
	// The pooled KKT context compiled exactly once across both sessions —
	// the "zero symbolic/pattern work in session two" guarantee.
	n, _ := eng.Pristine("case30")
	kkt := eng.AcquireOPF(eng.Artifacts(n).Sig)
	if kkt.Compiles() != 1 {
		t.Fatalf("shared KKT context compiled %d times across two sessions, want 1", kkt.Compiles())
	}
	// LoadCase returns an API-compat clone; beyond that, the second
	// session's state access is clone-free (the per-call Network() zero-
	// clone contract is pinned exactly in the session tests).
	if d := model.CloneCount() - cloneBase; d > 8 {
		t.Fatalf("second session cloned %d networks; the serving path should stay near zero", d)
	}
}

// TestSensitivitySweepReusesPooledKKT: the load-sensitivity tool's impact
// re-solves must run in the engine's pooled solver context — zero fresh
// KKT contexts and zero pattern compilations beyond the base solve —
// proven by exact counters, like the PR 5 engine tests.
func TestSensitivitySweepReusesPooledKKT(t *testing.T) {
	eng := engine.New()
	sess := session.NewWithEngine(nil, eng)
	if _, err := sess.LoadCase("case30"); err != nil {
		t.Fatal(err)
	}
	sol, _, err := solveWithRecovery(sess, eng)
	if err != nil || !sol.Solved {
		t.Fatalf("acopf: %v", err)
	}
	sess.SetACOPF(sol)
	before := eng.Stats()
	if before.OPFCreates != 1 {
		t.Fatalf("base solve created %d KKT contexts, want 1", before.OPFCreates)
	}

	tool := loadSensitivityTool(sess, eng)
	out, err := tool.Fn(map[string]any{
		"buses":    []any{7.0, 21.0, 30.0},
		"delta_mw": 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := out.(map[string]any)
	if !ok || res["solved_probes"].(int) != 3 {
		t.Fatalf("sensitivity sweep did not solve all probes: %+v", out)
	}

	after := eng.Stats()
	if after.OPFCreates != before.OPFCreates {
		t.Fatalf("sensitivity sweep compiled a private KKT context: creates %d -> %d",
			before.OPFCreates, after.OPFCreates)
	}
	if after.OPFReuses == before.OPFReuses {
		t.Fatal("sensitivity sweep never checked the pooled KKT context out")
	}
	n, err := sess.Network()
	if err != nil {
		t.Fatal(err)
	}
	kkt := eng.AcquireOPF(eng.Artifacts(n).Sig)
	if kkt.Compiles() != 1 {
		t.Fatalf("pooled KKT context compiled %d patterns across base solve + 3-bus sweep, want 1",
			kkt.Compiles())
	}
}
