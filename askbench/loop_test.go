package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTarget answers every ask with the recorded status reply, failing
// every failEvery-th one at the transport.
type fakeTarget struct {
	asks      atomic.Int64
	failEvery int64
}

func (f *fakeTarget) create(context.Context) (string, error) { return "s", nil }
func (f *fakeTarget) remove(context.Context, string) error   { return nil }
func (f *fakeTarget) ask(context.Context, string, string) (reply, error) {
	n := f.asks.Add(1)
	time.Sleep(100 * time.Microsecond)
	if f.failEvery > 0 && n%f.failEvery == 0 {
		return reply{}, errors.New("connection reset")
	}
	return reply{text: recStatus, success: true}, nil
}

type statusGen struct{}

func (statusGen) next() op { return op{kind: kStatus, query: "What is the current network status?"} }

func TestClosedLoopAccounting(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeTarget{failEvery: 10}
	r := closedLoop(context.Background(), g, loopSpec{sides: []side{{f, []string{"s"}, 0}},
		gens: []generator{statusGen{}, statusGen{}}, d: 30 * time.Millisecond})[0]
	if r.attempted < 20 || int64(r.attempted) != f.asks.Load() || len(r.lat) != r.attempted {
		t.Errorf("attempted %d, asked %d, %d latencies", r.attempted, f.asks.Load(), len(r.lat))
	}
	if want := r.attempted / 10; r.failed != want || r.mismatched != 0 {
		t.Errorf("failed %d (mismatched %d), want %d transport failures", r.failed, r.mismatched, want)
	}
	if r.tools["get_network_status"] != r.attempted-r.failed {
		t.Errorf("tool count %d for %d answered asks", r.tools["get_network_status"], r.attempted-r.failed)
	}
}

// TestClosedLoopStopsAtTwiceTheWindow: a window short of its minimum
// operation count runs on, but never past twice its length.
func TestClosedLoopStopsAtTwiceTheWindow(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	r := closedLoop(context.Background(), g, loopSpec{sides: []side{{&fakeTarget{}, []string{"s"}, 0}},
		gens: []generator{statusGen{}}, d: 20 * time.Millisecond, minOps: 1 << 30})[0]
	if r.elapsed < 40*time.Millisecond || r.elapsed > 2*time.Second {
		t.Errorf("window of 20ms with an unreachable minimum ran %v", r.elapsed)
	}
}

// TestClosedLoopRoutes: each operation runs on the sides its route names,
// and onOp sees every completed operation once.
func TestClosedLoopRoutes(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	a, b := &fakeTarget{}, &fakeTarget{}
	var seen atomic.Int64
	rs := closedLoop(context.Background(), g, loopSpec{
		sides: []side{{a, []string{"s"}, 0}, {b, []string{"s"}, 1}},
		gens:  []generator{statusGen{}, statusGen{}},
		d:     30 * time.Millisecond,
		route: func(i int) []int {
			if i%2 == 0 {
				return []int{0}
			}
			return []int{1, 0}
		},
		onOp: func(done int64) { seen.Add(1) },
	})
	ops := seen.Load()
	if rs[0].attempted != int(ops) || int64(rs[0].attempted) != a.asks.Load() {
		t.Errorf("side 0 ran %d of %d operations (target saw %d)", rs[0].attempted, ops, a.asks.Load())
	}
	if n := rs[1].attempted; n < int(ops)/2-2 || n > int(ops)/2+2 || int64(n) != b.asks.Load() {
		t.Errorf("side 1 ran %d of %d operations, want every other one", n, ops)
	}
}

// TestInprocTracedChat drives chat-light in-process with spans from its
// clients, checking every reply and the span tree it leaves.
func TestInprocTracedChat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solvers")
	}
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
	w, _ := workloadByName("chat-light")
	tr := newTracer()
	tgt, err := newInprocTarget(tr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ids, err := w.setup(ctx, tgt, env)
	if err != nil {
		t.Fatal(err)
	}
	tr.phase = "script"
	var gens []generator
	for c := 0; c < w.clients; c++ {
		gens = append(gens, w.gen(5, c, env))
	}
	r := closedLoop(ctx, g, loopSpec{sides: []side{{tgt, ids, 0}}, gens: gens, d: 300 * time.Millisecond, minOps: 50})[0]
	if r.failed != 0 || r.attempted < 50 {
		t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.notes)
	}
	if tr.misaligned != 0 {
		t.Errorf("%d asks with unmatched tool steps", tr.misaligned)
	}
	asks := tr.durations("script", "agents.ask", time.Millisecond)
	if len(asks) != r.attempted || len(tr.askSelfTimes("script", time.Millisecond)) != r.attempted {
		t.Errorf("%d ask spans for %d asks", len(asks), r.attempted)
	}
	tools := 0
	for _, n := range r.tools {
		tools += n
	}
	spans := 0
	for _, name := range []string{"get_network_status", "solve_base_case", "run_n1_contingency_analysis",
		"analyze_specific_contingency", "get_contingency_status"} {
		spans += len(tr.durations("script", "tool."+name, time.Millisecond))
	}
	if spans != tools {
		t.Errorf("%d tool spans for %d tool calls", spans, tools)
	}
	if rounds, _ := tr.askMeans("script"); rounds < 2 {
		t.Errorf("%.2f model calls per ask; every scripted ask takes at least two", rounds)
	}
}
