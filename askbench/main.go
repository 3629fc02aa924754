// Command askbench is the end-to-end /ask benchmark. It builds
// cmd/gridmind-server, runs it on loopback with the simulated model, drives
// one seeded closed-loop workload over HTTP, checks every reply against
// recorded references, and prints the end-to-end metrics. With -trace 1 it
// instead replays the same script in-process with spans around the calls
// into each layer and prints the per-layer metrics. The last line of
// standard output is the JSON result.
//
//	bash askbench/run.sh --workload chat-light --seed 1 --seconds 30 --trace 0
//
// -record rewrites golden.json from the program's current replies.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"gridmind"
)

// setupRepeats is how many times an end-to-end run sets up from a fresh
// server; setup_s is their median and the last one serves the timed window.
const setupRepeats = 5

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload: chat-light, opf-whatif or n1-fresh")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "length of the timed window in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: traced per-layer metrics")
	record := flag.Bool("record", false, "rewrite golden.json from the program's replies and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "askbench:", err)
		return 2
	}
	if *record {
		if err := recordGolden(ctx, "golden.json"); err != nil {
			fmt.Fprintln(os.Stderr, "askbench: record:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*workloadName)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "askbench: need --workload chat-light|opf-whatif|n1-fresh, --seconds >= 1, --trace 0|1:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, root: root}
	if err := b.prepare(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "askbench:", err)
		return 1
	}
	var res *result
	if *traceMode == 0 {
		res, err = b.endToEnd(ctx)
	} else {
		res, err = b.traced(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "askbench:", err)
		return 1
	}
	res.Env = b.environment(*traceMode)
	if err := res.emit(filepath.Join(b.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, b.seed, *traceMode))); err != nil {
		fmt.Fprintln(os.Stderr, "askbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// repoRoot is the checkout holding this benchmark: the parent of the
// working directory, which must hold the gridmind module.
func repoRoot() (string, error) {
	root, err := filepath.Abs("..")
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "gridmind-server", "main.go")); err != nil {
		return "", fmt.Errorf("run from the benchmark directory of a gridmind checkout: %w", err)
	}
	return root, nil
}

// bench is one run's configuration and shared inputs.
type bench struct {
	w      *workload
	seed   int64
	window time.Duration
	root   string
	out    string // build and output directory
	bin    string
	golden *golden
	env    *scriptEnv
}

func (b *bench) prepare(ctx context.Context) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	b.golden = g
	if b.env, err = caseEnv(); err != nil {
		return err
	}
	if err := b.env.usePools(g); err != nil {
		return err
	}
	b.out = filepath.Join(b.root, ".bench_build")
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	b.bin = filepath.Join(b.out, "gridmind-server")
	return buildServer(ctx, b.root, b.bin)
}

// caseEnv reads the case data the scripts are generated from.
func caseEnv() (*scriptEnv, error) {
	n118, err := gridmind.LoadCase("case118")
	if err != nil {
		return nil, err
	}
	loads := map[int]float64{}
	for i, bus := range n118.Buses {
		if p, _ := n118.BusLoad(i); p > 0 {
			loads[bus.ID] = p
		}
	}
	return newScriptEnv(loads), nil
}

func (b *bench) gens() []generator {
	gs := make([]generator, b.w.clients)
	for i := range gs {
		gs[i] = b.w.gen(b.seed, i, b.env)
	}
	return gs
}

// launch starts a fresh server and prepares the workload's sessions on it.
func (b *bench) launch(ctx context.Context) (*server, *httpTarget, []string, error) {
	srv, err := startServer(ctx, b.bin)
	if err != nil {
		return nil, nil, nil, err
	}
	ht := newHTTPTarget(srv.base, b.w.clients)
	ids, err := b.w.setup(ctx, ht, b.env)
	if err != nil {
		ht.close()
		srv.stop()
		return nil, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	return srv, ht, ids, nil
}

// endToEnd measures the workload over HTTP with tracing off.
func (b *bench) endToEnd(ctx context.Context) (*result, error) {
	var setups []float64
	var srv *server
	var ht *httpTarget
	var ids []string
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			ht.close()
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, ht, ids, err = b.launch(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	defer ht.close()

	// The server's RSS grows with the asks it has served, so it is read at
	// a fixed operation count rather than at the end of the window.
	var rss float64
	var rssErr error
	rssRead := false
	win, err := b.httpWindow(ctx, srv, loopSpec{
		sides: []side{{ht, ids, 0}}, gens: b.gens(), d: b.window,
		minOps: max(minSamplesFor(0.9), b.w.rssOps),
		onOp: func(done int64) {
			if done == int64(b.w.rssOps) {
				rss, rssErr = srv.peakRSSMB()
				rssRead = true
			}
		},
	})
	if err != nil {
		return nil, err
	}
	loop := win.sides[0]
	res := newResult(win.crossErr, loop)
	if !rssRead {
		res.Notes = append(res.Notes, fmt.Sprintf("server_peak_rss_mb read after %d operations, short of %d", loop.attempted, b.w.rssOps))
		rss, rssErr = srv.peakRSSMB()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	// The latency and throughput metrics are medians over time slices of
	// the window (see maxSlices).
	sl := slicesOf(loop)
	if len(sl.p50) == 0 {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("%d operations are too few for a p90", loop.attempted))
	} else {
		res.metric("ask_p50_ms", median(sl.p50), "ms")
		res.metric("ask_p90_ms", median(sl.p90), "ms")
		res.metric("asks_per_s", median(sl.okPerS), "1/s")
		res.Samples["ask_p50_ms"], res.Samples["ask_p90_ms"] = loop.attempted, loop.attempted
		res.Info["slices"] = float64(len(sl.p50))
	}
	// Not every workload's window holds the 1000 asks a p99 needs, so it is
	// reported beside the metrics rather than as one.
	res.percentile("ask_p99_ms", millis(loop.lat), 0.99)
	ok := loop.attempted - loop.failed
	res.metric("ask_ok_share", float64(ok)/float64(loop.attempted), "ratio")
	res.metric("server_cpu_ms_per_ask", float64(win.cpu)/1e6/float64(loop.attempted), "ms")
	res.metric("server_peak_rss_mb", rss, "MB")
	res.metric("setup_s", median(setups), "s")
	res.Info["ask_fail_share"] = float64(loop.failed) / float64(loop.attempted)
	res.Info["setup_runs"] = float64(len(setups))
	res.Info["rss_at_ops"] = float64(b.w.rssOps)
	if err := b.runProbes(ctx, ht, ids, res); err != nil {
		return nil, err
	}
	return res, nil
}

// window is one timed window over HTTP with its /metrics cross-check.
type window struct {
	sides    []*loopResult // sides[0] is the server's
	cpu      time.Duration
	crossErr error
}

// httpWindow runs spec, whose first side is srv, between two scrapes of
// srv's /metrics.
func (b *bench) httpWindow(ctx context.Context, srv *server, spec loopSpec) (*window, error) {
	pre, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	sides := closedLoop(ctx, b.golden, spec)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	post, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	return &window{sides: sides, cpu: cpu1 - cpu0, crossErr: crossCheck(pre, post, sides[0].tools)}, nil
}

// crossCheck holds the server's own counters to the benchmark's view of a
// window: every tool invocation accounted for, no engine compilation, and
// the live-session gauge back where it started.
func crossCheck(pre, post map[string]float64, tools map[string]int) error {
	var errs []error
	seen := map[string]bool{}
	for series := range post {
		if name, ok := strings.CutPrefix(series, `gridmind_tool_invocations_total{tool="`); ok {
			seen[strings.TrimSuffix(name, `"}`)] = true
		}
	}
	for name := range tools {
		seen[name] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		key := `gridmind_tool_invocations_total{tool="` + name + `"}`
		if got := post[key] - pre[key]; int(got) != tools[name] {
			errs = append(errs, fmt.Errorf("/metrics counts %v %s invocations in the window, the benchmark %d", got, name, tools[name]))
		}
	}
	for _, key := range []string{
		"gridmind_engine_ybus_builds_total",
		"gridmind_engine_topology_builds_total",
		"gridmind_engine_ptdf_builds_total",
	} {
		if post[key] != pre[key] {
			errs = append(errs, fmt.Errorf("%s grew by %v inside the window", key, post[key]-pre[key]))
		}
	}
	if _, ok := post["gridmind_sessions_live"]; !ok {
		errs = append(errs, errors.New("/metrics has no gridmind_sessions_live gauge"))
	} else if post["gridmind_sessions_live"] != pre["gridmind_sessions_live"] {
		errs = append(errs, fmt.Errorf("live sessions went from %v to %v over the window",
			pre["gridmind_sessions_live"], post["gridmind_sessions_live"]))
	}
	return errors.Join(errs...)
}
