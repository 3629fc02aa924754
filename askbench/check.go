package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"gridmind"
)

// Tolerances of the reference check: half the last printed digit (ranking
// severities print to 0.1, outage severities to 0.01, voltages to 1e-4 p.u.),
// one printed digit for loads (0.01 MW, as the program rounds them before the
// model adds a delta), and a relative 1e-6 on costs, which the interior-point
// tolerance moves in the last cent when its warm context differs.
const (
	costRelTol = 1e-6
	sevTol     = 0.05 + 1e-9
	outSevTol  = 0.005 + 1e-9
	voltTol    = 5e-5 + 1e-12
	loadTol    = 0.01 + 1e-9
)

// A what-if reply states its new cost and the change from the session's
// previous solution. Tolerances of the what-if check:
//   - the new cost must be the previous reply's cost plus the change, to
//     the three half-cents the three printed figures round away;
//   - the change per MW moved must lie between mcLoMul times the cheapest
//     generator marginal cost and mcHiMul times the dearest one, give or
//     take twice the solve tolerance on the base objective. The change is
//     about the bus's marginal price times the MW moved; the margins leave
//     room for loss factors and congestion. Over 130 what-ifs of three
//     seeds, the 5th to 95th percentile change was 20.6–29.0 $/MWh, against
//     marginal costs of 18.06–40.20 $/MWh.
const (
	chainTol = 0.015 + 1e-9
	mcLoMul  = 0.5
	mcHiMul  = 1.25
)

// maxLoadingPct is the worst branch loading an ACOPF point can report: the
// ACOPF holds every branch within its rating, and prints loading to 0.01%.
const maxLoadingPct = 100.5

// Known defects of what-if replies. Such a reply counts as a failed ask,
// but not as a contradiction of the reference.
var (
	// errStaleCost: the reply quotes the previous solution's cost beside
	// the right change. When the simulated model misquotes a cost, the
	// agent's narration audit repairs it to the nearest cost in the turn's
	// tool results; a relative what-if's turn also holds the state it
	// started from, whose cost can be the nearer one.
	errStaleCost = errors.New("known defect: the reply quotes the previous solution's cost")
	// errFallback: the interior-point solve failed, the tool's recovery
	// ladder fell back to economic dispatch plus a power flow, which
	// ignores branch ratings, and the reply still says it re-solved the
	// ACOPF. Its cost is not an ACOPF cost and its branch loading exceeds
	// the ratings.
	errFallback = errors.New("known defect: the reply presents the dispatch fallback as an ACOPF re-solve")
)

// golden holds reference outputs recorded from the program (see -record).
type golden struct {
	Case14  caseGolden `json:"case14"`
	Case118 caseGolden `json:"case118"`
	WhatIfs whatIfPool `json:"opf_whatif_pool"`
	// mcLo and mcHi are the lowest and highest marginal costs ($/MWh) of
	// case118's in-service generators over their output ranges, read from
	// the case data.
	mcLo, mcHi float64
}

type caseGolden struct {
	Objective float64      `json:"objective"`
	Status    *statusReply `json:"status,omitempty"`
	Sweep     sweepReply   `json:"sweep"`
	// Outages holds one reply per branch (case14 only).
	Outages []outageReply `json:"outages,omitempty"`
}

// whatIfPool records which opf-whatif candidate conversations the program
// answers correctly.
type whatIfPool struct {
	Seed       int64 `json:"seed"`
	Candidates int   `json:"candidates"`
	// Digest hashes the candidates' queries, tying the record to the
	// scripter and case data that made them.
	Digest string `json:"digest"`
	// Kept lists the candidates whose every reply passed the check.
	Kept []int `json:"kept"`
	// Defects lists the others, each with its first failing operation.
	Defects []poolDefect `json:"defects"`
}

type poolDefect struct {
	Conversation int    `json:"conversation"`
	Op           int    `json:"op"`
	Error        string `json:"error"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Case14.Status == nil || len(g.Case14.Outages) == 0 || g.Case118.Objective == 0 || len(g.WhatIfs.Kept) == 0 {
		return nil, fmt.Errorf("golden.json is incomplete; rerun with -record")
	}
	if err := g.readMarginalCosts(); err != nil {
		return nil, err
	}
	return &g, nil
}

// readMarginalCosts sets mcLo and mcHi from the case data.
func (g *golden) readMarginalCosts() error {
	n, err := gridmind.LoadCase("case118")
	if err != nil {
		return err
	}
	g.mcLo, g.mcHi = math.Inf(1), 0
	for _, gen := range n.Gens {
		if gen.InService {
			g.mcLo = min(g.mcLo, gen.Cost.Marginal(gen.PMin), gen.Cost.Marginal(gen.PMax))
			g.mcHi = max(g.mcHi, gen.Cost.Marginal(gen.PMin), gen.Cost.Marginal(gen.PMax))
		}
	}
	return nil
}

// --- reply parsers ---

var (
	reStatus = regexp.MustCompile(`^Active case (\S+): (\d+) buses, (\d+) generators, (\d+) loads, (\d+) AC lines and (\d+) transformers\. Total demand ([0-9.]+) MW\. A solved ACOPF exists with generation cost \$([0-9.]+)/h \((fresh)\)\.$`)
	reSweep  = regexp.MustCompile(`^Completed the T-1 sweep on (\S+): (\d+) outages analyzed — (\d+) secure, (\d+) with overloads, (\d+) causing islanding, (\d+) unsolvable\. Top (\d+) critical elements \(composite ranking\): (.*?)\. Maximum post-contingency overload: [0-9.]+%\.`)
	reCrit   = regexp.MustCompile(`branch (\d+) \((\d+)-(\d+), severity ([0-9.]+)\)`)
	reOutage = regexp.MustCompile(`^Outage analysis: (.*) Severity score ([0-9.]+); post-contingency minimum voltage ([0-9.]+) p\.u\.(?: Estimated ([0-9.]+) MW of load shedding required\.)?$`)
	reCont   = regexp.MustCompile(`^A contingency sweep exists \(fresh for the current network state\): (\d+) outages, (\d+) secure, (\d+) with overloads\. Cache holds (\d+) entries \(\d+ hits / \d+ misses\)\.$`)
	reSolve  = regexp.MustCompile(`^Solved (\S+): the AC optimal power flow converged in \d+ iterations \([^)]*\)\. Total generation cost is \$([0-9.]+)/h `)
	reModify = regexp.MustCompile(`^Updated bus (\d+) load from ([0-9.]+) MW to ([0-9.]+) MW and re-solved the ACOPF\. New generation cost: \$([0-9.]+)/h \(([+-][0-9.]+) \$/h versus the previous solution\)\. Voltages remain within [0-9.]+-[0-9.]+ p\.u\. with worst loading ([0-9.]+)%\.$`)
)

type statusReply struct {
	Case         string  `json:"case"`
	Buses        int     `json:"buses"`
	Generators   int     `json:"generators"`
	Loads        int     `json:"loads"`
	Lines        int     `json:"lines"`
	Transformers int     `json:"transformers"`
	DemandMW     float64 `json:"demand_mw"`
	Cost         float64 `json:"cost"`
}

type critical struct {
	Branch   int     `json:"branch"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	Severity float64 `json:"severity"`
}

type sweepReply struct {
	Case      string     `json:"case"`
	Total     int        `json:"total"`
	Secure    int        `json:"secure"`
	Overloads int        `json:"overloads"`
	Islanding int        `json:"islanding"`
	Unsolved  int        `json:"unsolved"`
	Critical  []critical `json:"critical"`
}

type outageReply struct {
	Description string  `json:"description"`
	Severity    float64 `json:"severity"`
	MinVoltage  float64 `json:"min_voltage_pu"`
	ShedMW      float64 `json:"shed_mw"`
	Success     bool    `json:"success"`
}

type modifyReply struct {
	Bus    int
	PrevMW float64
	NewMW  float64
	Cost   float64
	Delta  float64 // cost change from the previous solution
	// LoadingPct is the worst branch loading.
	LoadingPct float64
}

// num parses a figure the regexps already matched as a number.
func num(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func atoi(s string) int {
	v, _ := strconv.Atoi(s)
	return v
}

func parseStatus(text string) (statusReply, error) {
	m := reStatus.FindStringSubmatch(text)
	if m == nil {
		return statusReply{}, fmt.Errorf("not a fresh status reply: %q", text)
	}
	return statusReply{Case: m[1], Buses: atoi(m[2]), Generators: atoi(m[3]), Loads: atoi(m[4]),
		Lines: atoi(m[5]), Transformers: atoi(m[6]), DemandMW: num(m[7]), Cost: num(m[8])}, nil
}

func parseSweep(text string) (sweepReply, error) {
	m := reSweep.FindStringSubmatch(text)
	if m == nil {
		return sweepReply{}, fmt.Errorf("not a sweep reply: %q", text)
	}
	r := sweepReply{Case: m[1], Total: atoi(m[2]), Secure: atoi(m[3]), Overloads: atoi(m[4]),
		Islanding: atoi(m[5]), Unsolved: atoi(m[6])}
	for _, c := range reCrit.FindAllStringSubmatch(m[8], -1) {
		r.Critical = append(r.Critical, critical{Branch: atoi(c[1]), From: atoi(c[2]), To: atoi(c[3]), Severity: num(c[4])})
	}
	if len(r.Critical) != atoi(m[7]) {
		return r, fmt.Errorf("sweep reply lists %d of %s critical elements", len(r.Critical), m[7])
	}
	return r, nil
}

func parseOutage(text string, success bool) (outageReply, error) {
	m := reOutage.FindStringSubmatch(text)
	if m == nil {
		return outageReply{}, fmt.Errorf("not an outage reply: %q", text)
	}
	r := outageReply{Description: m[1], Severity: num(m[2]), MinVoltage: num(m[3]), Success: success}
	if m[4] != "" {
		r.ShedMW = num(m[4])
	}
	return r, nil
}

func parseContStatus(text string) (total, secure, overloads, entries int, err error) {
	m := reCont.FindStringSubmatch(text)
	if m == nil {
		return 0, 0, 0, 0, fmt.Errorf("not a contingency status reply: %q", text)
	}
	return atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4]), nil
}

func parseSolve(text string) (string, float64, error) {
	m := reSolve.FindStringSubmatch(text)
	if m == nil {
		return "", 0, fmt.Errorf("not a solve reply: %q", text)
	}
	return m[1], num(m[2]), nil
}

func parseModify(text string) (modifyReply, error) {
	m := reModify.FindStringSubmatch(text)
	if m == nil {
		return modifyReply{}, fmt.Errorf("not a what-if reply: %q", text)
	}
	return modifyReply{Bus: atoi(m[1]), PrevMW: num(m[2]), NewMW: num(m[3]), Cost: num(m[4]), Delta: num(m[5]), LoadingPct: num(m[6])}, nil
}

// --- the check ---

// checkReply reports how a reply contradicts the reference for its op: a
// wrong or missing figure, or (in-process) a tool sequence other than the
// model's. A reply with success:false is a failed ask either way, but a
// failure narration carries no figures to contradict; an outage reply's
// success flag is itself checked, as the islanding outage is recorded with
// success:false.
//
// cost is the session's generation cost as its last checked reply left it,
// 0 when unknown. A solve sets it and each what-if moves it. A what-if's
// cost is checked only against a known previous cost; a failed or
// contradicting solve or what-if, or a fallback, leaves it unknown until
// the next solve.
func checkReply(g *golden, o op, r reply, cost *float64) error {
	if o.kind >= kSolve && o.kind <= kDecrease {
		prev := *cost
		*cost = 0
		if o.kind != kSolve {
			return checkWhatIf(g, o, r, prev, cost)
		}
	}
	if r.tools != nil && strings.Join(r.tools, ",") != strings.Join(toolsFor(o.kind), ",") {
		return fmt.Errorf("%q ran tools %v, want %v", o.query, r.tools, toolsFor(o.kind))
	}
	if !r.success && o.kind != kOutage {
		return nil
	}
	switch o.kind {
	case kStatus:
		got, err := parseStatus(r.text)
		if err != nil {
			return err
		}
		want := *g.Case14.Status
		if got.Case != want.Case || got.Buses != want.Buses || got.Generators != want.Generators ||
			got.Loads != want.Loads || got.Lines != want.Lines || got.Transformers != want.Transformers ||
			!closeTo(got.DemandMW, want.DemandMW, loadTol) || !costClose(got.Cost, want.Cost) {
			return fmt.Errorf("status %+v, want %+v", got, want)
		}
	case kRanking:
		return checkSweep(r.text, g.Case14.Sweep, o.topK)
	case kN1:
		return checkSweep(r.text, g.Case118.Sweep, o.topK)
	case kOutage:
		if o.branch < 0 || o.branch >= len(g.Case14.Outages) {
			return fmt.Errorf("no reference for branch %d", o.branch)
		}
		want := g.Case14.Outages[o.branch]
		got, err := parseOutage(r.text, r.success)
		if err != nil {
			if !r.success {
				return nil // a failure narration
			}
			return err
		}
		if got.Description != want.Description || got.Success != want.Success ||
			!closeTo(got.Severity, want.Severity, outSevTol) || !closeTo(got.MinVoltage, want.MinVoltage, voltTol) ||
			!closeTo(got.ShedMW, want.ShedMW, loadTol) {
			return fmt.Errorf("outage of branch %d: %+v, want %+v", o.branch, got, want)
		}
	case kContStatus:
		total, secure, overloads, entries, err := parseContStatus(r.text)
		if err != nil {
			return err
		}
		want := g.Case14.Sweep
		if total != want.Total || secure != want.Secure || overloads != want.Overloads || entries != want.Total {
			return fmt.Errorf("contingency status %d/%d/%d (%d cached), want %d/%d/%d", total, secure, overloads, entries,
				want.Total, want.Secure, want.Overloads)
		}
	case kSolve:
		name, got, err := parseSolve(r.text)
		if err != nil {
			return err
		}
		if name != "case118" || !costClose(got, g.Case118.Objective) {
			return fmt.Errorf("solve %s at $%.2f/h, want case118 at $%.2f/h", name, got, g.Case118.Objective)
		}
		*cost = got
	}
	return nil
}

// checkWhatIf checks a load what-if reply against the scripted loads and
// the session's previous cost prev (0 when unknown), and sets *cost to the
// session's new cost where it is known.
func checkWhatIf(g *golden, o op, r reply, prev float64, cost *float64) error {
	if r.tools != nil && strings.Join(r.tools, ",") != strings.Join(toolsFor(o.kind), ",") {
		return fmt.Errorf("%q ran tools %v, want %v", o.query, r.tools, toolsFor(o.kind))
	}
	if !r.success {
		return nil
	}
	got, err := parseModify(r.text)
	if err != nil {
		return err
	}
	if got.Bus != o.bus || !closeTo(got.PrevMW, o.prevMW, loadTol) || !closeTo(got.NewMW, o.newMW, loadTol) {
		return fmt.Errorf("what-if %+v, want bus %d %.2f→%.2f MW", got, o.bus, o.prevMW, o.newMW)
	}
	if got.LoadingPct > maxLoadingPct {
		return fmt.Errorf("what-if %+v: %w", got, errFallback)
	}
	if prev == 0 {
		return nil
	}
	dMW := got.NewMW - got.PrevMW
	lo, hi := mcLoMul*g.mcLo*dMW, mcHiMul*g.mcHi*dMW
	tol := 2 * costRelTol * g.Case118.Objective
	if got.Delta < min(lo, hi)-tol || got.Delta > max(lo, hi)+tol {
		return fmt.Errorf("what-if %+v: %+.2f $/h for %+.2f MW, want %+.2f to %+.2f", got, got.Delta, dMW, min(lo, hi), max(lo, hi))
	}
	if !closeTo(got.Cost, prev+got.Delta, chainTol) {
		if closeTo(got.Cost, prev, chainTol) && math.Abs(got.Delta) > chainTol {
			// The session holds the right solution; only the reply is stale.
			*cost = prev + got.Delta
			return fmt.Errorf("what-if %+v after $%.2f/h: %w", got, prev, errStaleCost)
		}
		return fmt.Errorf("what-if %+v after $%.2f/h: cost is not the previous plus the change", got, prev)
	}
	*cost = got.Cost
	return nil
}

// checkSweep compares a sweep reply with the reference's first topK
// critical elements.
func checkSweep(text string, want sweepReply, topK int) error {
	got, err := parseSweep(text)
	if err != nil {
		return err
	}
	if topK > len(want.Critical) {
		return fmt.Errorf("no reference for top %d", topK)
	}
	if got.Case != want.Case || got.Total != want.Total || got.Secure != want.Secure ||
		got.Overloads != want.Overloads || got.Islanding != want.Islanding || got.Unsolved != want.Unsolved ||
		len(got.Critical) != topK {
		return fmt.Errorf("sweep %+v, want %+v top %d", got, want, topK)
	}
	for i, c := range got.Critical {
		w := want.Critical[i]
		if c.Branch != w.Branch || c.From != w.From || c.To != w.To || !closeTo(c.Severity, w.Severity, sevTol) {
			return fmt.Errorf("critical #%d is %+v, want %+v", i+1, c, w)
		}
	}
	return nil
}

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func costClose(a, b float64) bool { return math.Abs(a-b) <= costRelTol*math.Abs(b) }
