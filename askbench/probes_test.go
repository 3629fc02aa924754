package main

import (
	"strings"
	"testing"
)

// TestProbesFromGolden checks that the recorded known failures become
// probes: the islanding outage on chat-light, the recorded what-if defect
// on opf-whatif, and none on n1-fresh.
func TestProbesFromGolden(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	env, err := caseEnv()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.usePools(g); err != nil {
		t.Fatal(err)
	}
	for _, br := range env.outages {
		if !g.Case14.Outages[br].Success {
			t.Errorf("branch %d, which the program fails on, is scripted", br)
		}
	}
	want := map[string]string{"chat-light": "outage of branch 13", "opf-whatif": "previous solution's cost", "n1-fresh": ""}
	for name, frag := range want {
		w, _ := workloadByName(name)
		ps := (&bench{w: w, golden: g, env: env}).probes()
		if frag == "" {
			if len(ps) != 0 {
				t.Errorf("%s: %d probes, want none", name, len(ps))
			}
			continue
		}
		if len(ps) == 0 || !strings.Contains(ps[0].name, frag) {
			t.Errorf("%s: probes %+v, want one about %q", name, ps, frag)
			continue
		}
		if last := ps[0].ops[len(ps[0].ops)-1]; name == "opf-whatif" && (ps[0].ops[0].kind != kSolve || last.kind == kSolve) {
			t.Errorf("%s: probe %q does not open with a solve and end on a what-if", name, ps[0].name)
		}
	}
}
