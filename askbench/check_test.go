package main

import (
	"errors"
	"strings"
	"testing"
)

// Replies as the program gave them, recorded from the simulated GPT-o3
// model on a fresh engine.
const (
	recStatus  = "Active case case14: 14 buses, 5 generators, 11 loads, 17 AC lines and 3 transformers. Total demand 259.00 MW. A solved ACOPF exists with generation cost $8081.52/h (fresh)."
	recRanking = "Completed the T-1 sweep on case14: 20 outages analyzed — 19 secure, 0 with overloads, 1 causing islanding, 0 unsolvable. Top 3 critical elements (composite ranking): branch 16 (9-14, severity 4.9), branch 15 (9-10, severity 4.9), branch 7 (4-7, severity 4.8). Maximum post-contingency overload: 0.00%. Recommend reinforcing the top-ranked corridors or adding reactive support at the depressed buses."
	recOutage  = "Outage analysis: line 3-4 outage is secure (max loading 0%, min voltage 1.010 p.u.) Severity score 4.28; post-contingency minimum voltage 1.0100 p.u."
	recIsland  = "Outage analysis: line 7-8 outage islands the system, shedding 0.0 MW Severity score 0.00; post-contingency minimum voltage 0.0000 p.u."
	recCont    = "A contingency sweep exists (fresh for the current network state): 20 outages, 19 secure, 0 with overloads. Cache holds 20 entries (3 hits / 20 misses)."
	recSolve   = "Solved case118: the AC optimal power flow converged in 67 iterations (primal-dual-interior-point). Total generation cost is $92720.68/h for 4299.38 MW dispatched (57.38 MW losses). Voltages span 1.0071-1.0600 p.u.; the most loaded branch sits at 100.00% of its rating. All figures are pulled from the stored solver output."
	recModify  = "Updated bus 15 load from 95.00 MW to 105.00 MW and re-solved the ACOPF. New generation cost: $94909.85/h (+246.18 $/h versus the previous solution). Voltages remain within 1.0061-1.0600 p.u. with worst loading 100.00%."
	recN1      = "Completed the T-1 sweep on case118: 186 outages analyzed — 77 secure, 94 with overloads, 15 causing islanding, 0 unsolvable. Top 3 critical elements (composite ranking): branch 171 (17-45, severity 195.5), branch 47 (34-49, severity 186.6), branch 59 (55-61, severity 184.7). Maximum post-contingency overload: 456.30%. Top mitigation: branch 15 (14-17) overloads under 3 different outages (worst 456%); add parallel capacity or uprate the corridor."
	recFailure = "I could not complete the analysis: bus 999 does not exist in case118. Please check the request (supported cases: IEEE 14, 30, 57, 118, 300) and try again."
)

func TestParsersOnRecordedReplies(t *testing.T) {
	st, err := parseStatus(recStatus)
	if err != nil || st.Case != "case14" || st.Buses != 14 || st.Lines != 17 || st.DemandMW != 259 || st.Cost != 8081.52 {
		t.Errorf("status %+v, %v", st, err)
	}
	sw, err := parseSweep(recRanking)
	if err != nil || sw.Total != 20 || sw.Islanding != 1 || len(sw.Critical) != 3 ||
		sw.Critical[2] != (critical{Branch: 7, From: 4, To: 7, Severity: 4.8}) {
		t.Errorf("ranking %+v, %v", sw, err)
	}
	o, err := parseOutage(recOutage, true)
	if err != nil || o.Description != "line 3-4 outage is secure (max loading 0%, min voltage 1.010 p.u.)" ||
		o.Severity != 4.28 || o.MinVoltage != 1.01 || !o.Success {
		t.Errorf("outage %+v, %v", o, err)
	}
	total, secure, overloads, entries, err := parseContStatus(recCont)
	if err != nil || total != 20 || secure != 19 || overloads != 0 || entries != 20 {
		t.Errorf("contingency status %d %d %d %d, %v", total, secure, overloads, entries, err)
	}
	name, cost, err := parseSolve(recSolve)
	if err != nil || name != "case118" || cost != 92720.68 {
		t.Errorf("solve %s %g, %v", name, cost, err)
	}
	m, err := parseModify(recModify)
	if err != nil || m != (modifyReply{Bus: 15, PrevMW: 95, NewMW: 105, Cost: 94909.85, Delta: 246.18, LoadingPct: 100}) {
		t.Errorf("what-if %+v, %v", m, err)
	}
	if _, err := parseModify(recFailure); err == nil {
		t.Error("a failure narration parsed as a what-if")
	}
}

func TestCheckReply(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	// The islanding outage and the branch the recorded outage reply names.
	island := -1
	for k, o := range g.Case14.Outages {
		if !o.Success {
			island = k
		}
	}
	if island < 0 {
		t.Fatal("golden.json records no islanding outage")
	}
	// The session cost recModify started from.
	const prevCost = 94909.85 - 246.18
	whatIf := op{kind: kIncrease, bus: 15, prevMW: 95, newMW: 105}
	ok := []struct {
		o          op
		r          reply
		prev, next float64 // the session cost before and after the reply
	}{
		{op{kind: kStatus}, reply{text: recStatus, success: true}, 7, 7},
		{op{kind: kRanking, topK: 3}, reply{text: recRanking, success: true}, 0, 0},
		{op{kind: kOutage, branch: 5}, reply{text: recOutage, success: true}, 0, 0},
		{op{kind: kOutage, branch: island}, reply{text: recIsland, success: false}, 0, 0},
		{op{kind: kContStatus}, reply{text: recCont, success: true}, 0, 0},
		{op{kind: kSolve}, reply{text: recSolve, success: true}, 0, 92720.68},
		{op{kind: kSolve}, reply{text: recSolve, success: true}, 5, 92720.68},
		{whatIf, reply{text: recModify, success: true}, prevCost, 94909.85},
		// With the previous cost unknown the cost is not checked.
		{whatIf, reply{text: strings.Replace(recModify, "+246.18", "-746.18", 1), success: true}, 0, 0},
		{op{kind: kN1, topK: 3}, reply{text: recN1, success: true}, 0, 0},
		{op{kind: kN1, topK: 3}, reply{text: recN1, success: true, tools: toolsFor(kN1)}, 0, 0},
		// A failure narration is a failed ask, not a contradiction, but
		// the session's cost is no longer known.
		{op{kind: kSetLoad, bus: 15, newMW: 100}, reply{text: recFailure, success: false}, prevCost, 0},
	}
	for _, c := range ok {
		cost := c.prev
		if err := checkReply(g, c.o, c.r, &cost); err != nil {
			t.Errorf("kind %d: %v", c.o.kind, err)
		}
		if cost != c.next {
			t.Errorf("kind %d: session cost %.2f after the reply, want %.2f", c.o.kind, cost, c.next)
		}
	}

	// Known defects, told apart from other contradictions: a reply quoting
	// the cost it started from (the session still moves on by the change),
	// and a dispatch fallback, whose loading exceeds the ratings.
	cost := 94909.85
	err = checkReply(g, whatIf, reply{text: recModify, success: true}, &cost)
	if !errors.Is(err, errStaleCost) || !closeTo(cost, 94909.85+246.18, 1e-9) {
		t.Errorf("stale what-if: %v, session cost %.2f", err, cost)
	}
	cost = prevCost
	fallback := strings.Replace(strings.Replace(recModify, "+246.18", "-120.93", 1), "100.00%", "254.24%", 1)
	err = checkReply(g, whatIf, reply{text: fallback, success: true}, &cost)
	if !errors.Is(err, errFallback) || cost != 0 {
		t.Errorf("fallback what-if: %v, session cost %.2f", err, cost)
	}

	bad := []struct {
		o op
		r reply
	}{
		{op{kind: kStatus}, reply{text: strings.Replace(recStatus, "8081.52", "8081.62", 1), success: true}},
		{op{kind: kRanking, topK: 3}, reply{text: strings.Replace(recRanking, "branch 7 (4-7", "branch 8 (4-7", 1), success: true}},
		{op{kind: kRanking, topK: 4}, reply{text: recRanking, success: true}},
		{op{kind: kOutage, branch: 5}, reply{text: strings.Replace(recOutage, "4.28", "4.30", 1), success: true}},
		{op{kind: kOutage, branch: 5}, reply{text: recOutage, success: false}},
		{op{kind: kOutage, branch: island}, reply{text: recIsland, success: true}},
		{op{kind: kContStatus}, reply{text: strings.Replace(recCont, "19 secure", "18 secure", 1), success: true}},
		{op{kind: kSolve}, reply{text: strings.Replace(recSolve, "92720.68", "92722.68", 1), success: true}},
		{op{kind: kIncrease, bus: 15, prevMW: 95, newMW: 104}, reply{text: recModify, success: true}},
		{op{kind: kIncrease, bus: 16, prevMW: 95, newMW: 105}, reply{text: recModify, success: true}},
		// Not the previous cost plus the change.
		{whatIf, reply{text: strings.Replace(recModify, "94909.85", "94919.85", 1), success: true}},
		// A change of the wrong sign, and one too large for 10 MW.
		{whatIf, reply{text: strings.Replace(recModify, "+246.18", "-246.18", 1), success: true}},
		{whatIf, reply{text: strings.Replace(recModify, "+246.18", "+746.18", 1), success: true}},
		{op{kind: kN1, topK: 3}, reply{text: recN1, success: true, tools: []string{"run_n1_contingency_analysis"}}},
		{op{kind: kStatus}, reply{text: recCont, success: true}},
	}
	for i, c := range bad {
		cost := prevCost
		if err := checkReply(g, c.o, c.r, &cost); err == nil || errors.Is(err, errStaleCost) {
			t.Errorf("case %d (kind %d): contradiction not detected: %v", i, c.o.kind, err)
		}
	}
}

func TestParseProm(t *testing.T) {
	m, err := parseProm(strings.NewReader(`# HELP gridmind_sessions_live Live sessions.
# TYPE gridmind_sessions_live gauge
gridmind_sessions_live 4
gridmind_tool_invocations_total{tool="get_network_status"} 17
gridmind_tool_latency_seconds_bucket{tool="x",le="+Inf"} 3
`))
	if err != nil || m["gridmind_sessions_live"] != 4 || m[`gridmind_tool_invocations_total{tool="get_network_status"}`] != 17 ||
		m[`gridmind_tool_latency_seconds_bucket{tool="x",le="+Inf"}`] != 3 {
		t.Errorf("parsed %v, %v", m, err)
	}
}

func TestCrossCheck(t *testing.T) {
	pre := map[string]float64{
		`gridmind_tool_invocations_total{tool="get_network_status"}`: 10,
		"gridmind_engine_ybus_builds_total":                          2,
		"gridmind_sessions_live":                                     4,
	}
	post := map[string]float64{
		`gridmind_tool_invocations_total{tool="get_network_status"}`: 15,
		`gridmind_tool_invocations_total{tool="modify_bus_load"}`:    3,
		"gridmind_engine_ybus_builds_total":                          2,
		"gridmind_sessions_live":                                     4,
	}
	if err := crossCheck(pre, post, map[string]int{"get_network_status": 5, "modify_bus_load": 3}); err != nil {
		t.Errorf("consistent window: %v", err)
	}
	if err := crossCheck(pre, post, map[string]int{"get_network_status": 5}); err == nil {
		t.Error("unaccounted tool calls passed")
	}
	post["gridmind_engine_ybus_builds_total"] = 3
	post["gridmind_sessions_live"] = 5
	err := crossCheck(pre, post, map[string]int{"get_network_status": 5, "modify_bus_load": 3})
	if err == nil || !strings.Contains(err.Error(), "ybus") || !strings.Contains(err.Error(), "live sessions") {
		t.Errorf("compile and session leak: %v", err)
	}
}
