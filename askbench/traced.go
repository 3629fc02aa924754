package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"gridmind"
)

// sessionProbes is how many create/delete pairs time the session layer.
const sessionProbes = 20

// solverSpan names the replayed solver a tool's time is compared with for
// tools.self_ms.
var solverSpan = map[string]string{
	"modify_bus_load":             "opf.solve",
	"run_n1_contingency_analysis": "contingency.sweep",
}

// probedTools are the tools with a per-tool metric. A tool the workload's
// script never calls is timed by one probe conversation after the script.
var probedTools = []string{
	"solve_acopf_case",
	"modify_bus_load",
	"run_n1_contingency_analysis",
	"get_network_status",
	"analyze_specific_contingency",
	"get_contingency_status",
}

// traced runs the script in one window over three sides that take turns:
// the server over HTTP, and one in-process target whose asks run with
// spans and without in turn. It then probes tools the script skipped,
// replays the solvers on the script's networks, and reports the per-layer
// metrics.
func (b *bench) traced(ctx context.Context) (*result, error) {
	tr := newTracer()
	srv, ht, ids, err := b.launch(ctx)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	defer ht.close()
	t, err := newInprocTarget(tr)
	if err != nil {
		return nil, err
	}
	tr.phase = "setup"
	tids, err := b.w.setup(ctx, t, b.env)
	if err != nil {
		return nil, fmt.Errorf("in-process set-up: %w", err)
	}

	// Each operation runs over HTTP and in-process, on sessions that stay
	// in step; which goes first alternates, and every other in-process ask
	// is traced.
	e0 := t.eng.Stats()
	h0, m0 := t.contCacheStats()
	tr.phase = "script"
	win, err := b.httpWindow(ctx, srv, loopSpec{
		sides: []side{{ht, ids, 0}, {untraced{t}, tids, 1}, {t, tids, 1}},
		gens:  b.gens(), d: b.window,
		minOps: 2 * minSamplesFor(0.5),
		route: func(i int) []int {
			in := 1 + (i/2)%2
			if i%2 == 0 {
				return []int{0, in}
			}
			return []int{in, 0}
		},
	})
	if err != nil {
		return nil, err
	}
	e1 := t.eng.Stats()
	h1, m1 := t.contCacheStats()
	tr.phase = "http"
	if err := b.probeSessions(ctx, ht, tr); err != nil {
		return nil, err
	}

	tr.phase = "probe"
	if err := b.probeTools(ctx, t, tr); err != nil {
		return nil, err
	}
	net, err := b.replayNetwork(t, tids)
	if err != nil {
		return nil, err
	}
	opfRuns, pfRuns, sweepRuns, err := b.replaySolvers(t.eng, tr, net)
	if err != nil {
		return nil, err
	}

	httpLoop, plainLoop, tracedLoop := win.sides[0], win.sides[1], win.sides[2]
	res := newResult(win.crossErr, win.sides...)
	const ms, us = time.Millisecond, time.Microsecond
	httpP50 := median(millis(httpLoop.lat))
	plainP50 := median(millis(plainLoop.lat))
	tracedP50 := median(millis(tracedLoop.lat))
	res.Samples["http_p50"], res.Samples["inproc_p50"], res.Samples["traced_p50"] =
		len(httpLoop.lat), len(plainLoop.lat), len(tracedLoop.lat)
	res.metric("server.overhead_ms", httpP50-plainP50, "ms")
	res.metric("server.session_create_ms", median(tr.durations("http", "server.session_create", ms)), "ms")
	res.metric("server.session_delete_ms", median(tr.durations("http", "server.session_delete", ms)), "ms")

	res.metric("agents.ask_ms", median(tr.durations("script", "agents.ask", ms)), "ms")
	res.metric("agents.self_ms", median(tr.askSelfTimes("script", ms)), "ms")
	res.metric("agents.plan_us", median(tr.durations("script", "agents.plan", us)), "us")
	rounds, prompt := tr.askMeans("script")
	res.metric("agents.llm_rounds_per_ask", rounds, "count")
	res.metric("llm.complete_us", median(tr.durations("script", "llm.complete", us)), "us")
	res.metric("llm.prompt_tokens_per_ask", prompt, "count")

	var allTools []float64
	for _, name := range probedTools {
		d := tr.durations("script", "tool."+name, ms)
		allTools = append(allTools, d...)
		if len(d) == 0 {
			d = tr.durations("probe", "tool."+name, ms)
			res.Info["probed."+name] = 1
		}
		res.metric("tools.invoke_ms."+name, median(d), "ms")
	}
	if b.w.solverTool == "" {
		res.metric("tools.self_ms", median(allTools), "ms")
	} else {
		res.metric("tools.self_ms", median(tr.durations("script", "tool."+b.w.solverTool, ms))-
			median(tr.durations("replay", solverSpan[b.w.solverTool], ms)), "ms")
	}

	res.metric("engine.struct_hit_ratio", ratio(e1.StructHits-e0.StructHits,
		e1.StructHits-e0.StructHits+e1.StructMisses-e0.StructMisses), "ratio")
	res.metric("engine.opf_context_reuse_ratio", ratio(e1.OPFReuses-e0.OPFReuses,
		e1.OPFReuses-e0.OPFReuses+e1.OPFCreates-e0.OPFCreates), "ratio")
	res.metric("engine.sweep_pool_hit_ratio", ratio(e1.SweepPoolHits-e0.SweepPoolHits,
		e1.SweepPoolHits-e0.SweepPoolHits+e1.SweepPoolNew-e0.SweepPoolNew), "ratio")
	res.metric("engine.base_pf_hit_ratio", ratio(e1.BasePFHits-e0.BasePFHits,
		e1.BasePFHits-e0.BasePFHits+e1.BasePFSolves-e0.BasePFSolves), "ratio")
	res.metric("engine.compiles", float64(e1.YbusBuilds-e0.YbusBuilds+e1.TopoBuilds-e0.TopoBuilds+
		e1.PTDFBuilds-e0.PTDFBuilds), "count")
	res.metric("session.cont_cache_hit_ratio", ratio(h1-h0, h1-h0+m1-m0), "ratio")

	var iters, allocs, pfIters, outages []float64
	recovered := 0
	for _, r := range opfRuns {
		iters = append(iters, float64(r.iters))
		allocs = append(allocs, float64(r.allocs))
		if r.recovered {
			recovered++
		}
	}
	for _, r := range pfRuns {
		pfIters = append(pfIters, float64(r.iters))
	}
	for _, r := range sweepRuns {
		outages = append(outages, float64(r.outages))
	}
	res.metric("opf.solve_ms", median(tr.durations("replay", "opf.solve", ms)), "ms")
	res.metric("opf.ipm_iters", median(iters), "count")
	res.metric("opf.allocs_per_solve", median(allocs), "count")
	res.metric("opf.recovery_share", float64(recovered)/float64(len(opfRuns)), "ratio")
	sweepMS := median(tr.durations("replay", "contingency.sweep", ms))
	res.metric("contingency.sweep_ms", sweepMS, "ms")
	res.metric("contingency.outages_solved", median(outages), "count")
	res.metric("contingency.us_per_outage", sweepMS*1000/median(outages), "us")
	res.metric("powerflow.solve_ms", median(tr.durations("replay", "powerflow.solve", ms)), "ms")
	res.metric("powerflow.newton_iters", median(pfIters), "count")
	res.metric("trace.overhead_pct", (tracedP50-plainP50)/plainP50*100, "%")

	res.Info["http_ask_p50_ms"] = httpP50
	res.Info["inproc_ask_p50_ms"] = plainP50
	res.Info["traced_ask_p50_ms"] = tracedP50
	res.Info["misaligned_asks"] = float64(tr.misaligned)
	res.Info["spans"] = float64(len(tr.spans))
	spans := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.Notes = append(res.Notes, "spans written to "+spans)
	return res, nil
}

// probeSessions times session creation and deletion on an otherwise idle
// server.
func (b *bench) probeSessions(ctx context.Context, ht *httpTarget, tr *tracer) error {
	for i := 0; i < sessionProbes; i++ {
		var id string
		if err := tr.timed("server.session_create", func() (err error) {
			id, err = ht.create(ctx)
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("server.session_delete", func() error { return ht.remove(ctx, id) }); err != nil {
			return err
		}
	}
	return nil
}

// probeTools runs one conversation on the workload's case that calls every
// tool the script did not.
func (b *bench) probeTools(ctx context.Context, t *inprocTarget, tr *tracer) error {
	missing := false
	for _, name := range probedTools {
		if len(tr.durations("script", "tool."+name, time.Millisecond)) == 0 {
			missing = true
		}
	}
	if !missing {
		return nil
	}
	n, err := gridmind.LoadCase(b.w.caseName)
	if err != nil {
		return err
	}
	bus := -1
	for i, bb := range n.Buses {
		if p, _ := n.BusLoad(i); p >= 5 {
			bus = bb.ID
			break
		}
	}
	num := b.w.caseName[len("case"):]
	id, err := t.create(ctx)
	if err != nil {
		return err
	}
	defer t.remove(ctx, id)
	for _, q := range []string{
		"Solve IEEE " + num,
		fmt.Sprintf("Increase the load at bus %d by 1 MW", bus),
		"Run N-1 contingency analysis on IEEE " + num,
		"Analyze the outage of branch 0",
		"Show the reinforcement study status",
	} {
		if err := warmAsk(ctx, t, id, q); err != nil {
			return fmt.Errorf("tool probe: %w", err)
		}
	}
	return nil
}

// replays is how many times each solver is replayed.
func (b *bench) replays() int {
	if b.w.caseName == "case14" {
		return 15
	}
	return 5
}

// replayNetwork picks the network the solvers are replayed on: a session's
// network as the script left it, or the pristine case.
func (b *bench) replayNetwork(t *inprocTarget, ids []string) (*gridmind.Network, error) {
	if len(ids) > 0 {
		return t.network(ids[0])
	}
	return gridmind.LoadCase(b.w.caseName)
}

// replaySolvers replays the ACOPF and the N-1 sweep on n b.replays() times,
// after one untimed run of each.
func (b *bench) replaySolvers(eng *gridmind.Engine, tr *tracer, n *gridmind.Network) (opfRuns, pfRuns, sweepRuns []solverReplay, err error) {
	const stateKey = "askbench-replay"
	tr.phase = "replay-warmup"
	tr.replayOPF(eng, n)
	if _, _, err := tr.replaySweep(eng, n, stateKey); err != nil {
		return nil, nil, nil, err
	}
	tr.phase = "replay"
	for i := 0; i < b.replays(); i++ {
		opfRuns = append(opfRuns, tr.replayOPF(eng, n))
		pf, sw, err := tr.replaySweep(eng, n, stateKey)
		if err != nil {
			return nil, nil, nil, err
		}
		pfRuns, sweepRuns = append(pfRuns, pf), append(sweepRuns, sw)
	}
	return opfRuns, pfRuns, sweepRuns, nil
}
