package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridmind"
	"gridmind/internal/agents"
	"gridmind/internal/contingency"
	"gridmind/internal/llm"
	"gridmind/internal/opf"
	"gridmind/internal/powerflow"
)

// span is one timed call into a layer. Spans of one ask share Ask; a child
// names its parent. Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Ask    int64         `json:"ask,omitempty"`
	Phase  string        `json:"phase"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory; write dumps them when the run ends.
type tracer struct {
	epoch  time.Time
	ids    atomic.Int64
	askIDs atomic.Int64
	// phase labels the spans recorded from now on; set only while no
	// client goroutine runs.
	phase string

	mu    sync.Mutex
	spans []span
	asks  []askRecord
	// misaligned counts asks whose tool steps could not be matched to the
	// model calls that requested them (their tools get no spans).
	misaligned int
}

// askRecord is one traced ask's model usage.
type askRecord struct {
	phase        string
	rounds       int
	promptTokens int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) now() time.Duration { return time.Since(tr.epoch) }

// add stores spans under the current phase, numbering those without an id.
func (tr *tracer) add(ss ...span) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range ss {
		if s.ID == 0 {
			s.ID = tr.ids.Add(1)
		}
		s.Phase = tr.phase
		tr.spans = append(tr.spans, s)
	}
}

// timed records fn as one root span.
func (tr *tracer) timed(name string, fn func() error) error {
	t0 := tr.now()
	err := fn()
	tr.add(span{Name: name, Start: t0, End: tr.now()})
	return err
}

type collectorKey struct{}

// askCollector gathers the model calls of one ask; the calls of one ask
// are sequential, so it needs no lock.
type askCollector struct {
	epoch  time.Time
	llm    []span
	prompt int
}

// timedClient wraps the simulated model as Options.Client and times every
// Complete into the ask's collector.
type timedClient struct{ inner llm.Client }

func (c timedClient) Model() string { return c.inner.Model() }

func (c timedClient) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	col, _ := ctx.Value(collectorKey{}).(*askCollector)
	t0 := time.Now()
	resp, err := c.inner.Complete(ctx, req)
	t1 := time.Now()
	if col != nil {
		col.llm = append(col.llm, span{Name: "llm.complete", Start: t0.Sub(col.epoch), End: t1.Sub(col.epoch)})
		if resp != nil {
			col.prompt += resp.Usage.PromptTokens
		}
	}
	return resp, err
}

// ask runs one traced Ask. Its span's children are the model
// calls (from timedClient) and the tool calls (from the Exchange steps,
// each placed right after the model call that requested it). The planner is
// replayed beforehand as its own span: agents.Plan is pure, and the copy
// inside Ask is part of the ask's self time.
func (tr *tracer) ask(ctx context.Context, gm *agents.Coordinator, query string) (*gridmind.Exchange, error) {
	askID := tr.askIDs.Add(1)
	p0 := tr.now()
	agents.Plan(query)
	p1 := tr.now()

	col := &askCollector{epoch: tr.epoch}
	t0 := tr.now()
	ex, err := gm.Handle(context.WithValue(ctx, collectorKey{}, col), query)
	t1 := tr.now()

	rootID := tr.ids.Add(1)
	spans := []span{
		{ID: rootID, Ask: askID, Name: "agents.ask", Start: t0, End: t1},
		{Ask: askID, Name: "agents.plan", Start: p0, End: p1},
	}
	children := col.llm
	aligned := true
	if ex != nil {
		var tools []span
		tools, aligned = toolSpans(ex, col.llm)
		children = append(children, tools...)
	}
	for _, c := range children {
		c.Parent, c.Ask = rootID, askID
		spans = append(spans, c)
	}
	tr.add(spans...)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.asks = append(tr.asks, askRecord{phase: tr.phase, rounds: len(col.llm), promptTokens: col.prompt})
	if !aligned {
		tr.misaligned++
	}
	return ex, err
}

// toolSpans places each tool step of ex after the model call that asked for
// it. The simulated model requests one tool per call, so step i of the
// flattened turns belongs to call i; anything else is reported unaligned.
func toolSpans(ex *gridmind.Exchange, calls []span) ([]span, bool) {
	var steps []agents.Step
	for _, t := range ex.Turns {
		steps = append(steps, t.Steps...)
	}
	if len(steps) != len(calls) {
		return nil, false
	}
	var out []span
	for i, st := range steps {
		if st.Kind != "tool_call" {
			continue
		}
		start := calls[i].End
		out = append(out, span{Name: "tool." + st.Tool, Start: start, End: start + st.ToolLat})
	}
	return out, true
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	// Merge overlapping intervals, adding each merged run once.
	var covered, start, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			covered += end - start
			start, end = v.a, v.b
			continue
		}
		end = max(end, v.b)
	}
	covered += end - start
	return parent.dur() - covered
}

// --- solver replays ---

// solverReplay is what replaying one solver call reports.
type solverReplay struct {
	dur       time.Duration
	iters     int
	allocs    uint64
	recovered bool
	outages   int
}

// replayOPF re-solves n's ACOPF with an engine-pooled interior-point
// context, as the tools do, and reports whether the tools' recovery ladder
// would have been needed.
func (tr *tracer) replayOPF(eng *gridmind.Engine, n *gridmind.Network) solverReplay {
	sig := eng.Artifacts(n).Sig
	kkt := eng.AcquireOPF(sig)
	defer eng.ReleaseOPF(sig, kkt)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := tr.now()
	sol, err := opf.SolveACOPF(n, opf.Options{Context: kkt})
	t1 := tr.now()
	runtime.ReadMemStats(&m1)
	tr.add(span{Name: "opf.solve", Start: t0, End: t1})
	r := solverReplay{dur: t1 - t0, allocs: m1.Mallocs - m0.Mallocs, recovered: err != nil || sol.MaxMismatchPU >= 1e-4}
	if sol != nil {
		r.iters = sol.Iterations
	}
	return r
}

// replaySweep solves n's base power flow one-shot, then sweeps every outage
// with the tools' shared engine options and an empty outage cache.
func (tr *tracer) replaySweep(eng *gridmind.Engine, n *gridmind.Network, stateKey string) (pf, sweep solverReplay, err error) {
	var base *powerflow.Result
	if err := tr.timed("powerflow.solve", func() (err error) {
		base, err = powerflow.Solve(n, powerflow.Options{EnforceQLimits: true})
		return err
	}); err != nil {
		return pf, sweep, fmt.Errorf("replaying base power flow: %w", err)
	}
	pf.iters = base.Iterations
	a := eng.Artifacts(n)
	opts := contingency.Options{
		Cache: contingency.NewCache(), CacheKeyPrefix: stateKey,
		BaseYbus: a.Ybus(), Topology: a.Topology(), Reorder: a.Ordering(),
		Pool: eng.SweepPool(stateKey), Metrics: eng.Metrics(),
	}
	var rs *contingency.ResultSet
	if err := tr.timed("contingency.sweep", func() (err error) {
		rs, err = contingency.Analyze(n, base, opts)
		return err
	}); err != nil {
		return pf, sweep, fmt.Errorf("replaying sweep: %w", err)
	}
	sweep.outages = len(rs.Outages) - rs.Screened
	return pf, sweep, nil
}

// --- span queries ---

// durations returns the sorted durations, in unit, of the spans named name
// recorded in phase.
func (tr *tracer) durations(phase, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Phase == phase && s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	sort.Float64s(out)
	return out
}

// askMeans returns the mean model calls and prompt tokens per ask in phase.
func (tr *tracer) askMeans(phase string) (rounds, prompt float64) {
	n := 0
	for _, a := range tr.asks {
		if a.phase == phase {
			rounds += float64(a.rounds)
			prompt += float64(a.promptTokens)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return rounds / float64(n), prompt / float64(n)
}

// askSelfTimes returns each ask's self time in phase, in unit.
func (tr *tracer) askSelfTimes(phase string, unit time.Duration) []float64 {
	kids := map[int64][]span{}
	for _, s := range tr.spans {
		if s.Phase == phase && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range tr.spans {
		if s.Phase == phase && s.Name == "agents.ask" {
			out = append(out, float64(selfTime(s, kids[s.ID]))/float64(unit))
		}
	}
	sort.Float64s(out)
	return out
}

// write dumps every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
