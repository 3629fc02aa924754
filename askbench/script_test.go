package main

import (
	"bytes"
	"fmt"
	"testing"
)

// testEnv stands in for the case data: three load buses of 10 MW or more
// and one under, outages of branches 0–4, and 20 what-if conversations.
func testEnv() *scriptEnv {
	env := newScriptEnv(map[int]float64{2: 21.7, 15: 90, 59: 277, 7: 3})
	env.outages = []int{0, 1, 2, 3, 4}
	env.candidates = candidateConversations(1, 20, env.loads)
	env.whatIfs = env.candidates
	return env
}

// script renders the first n operations of every client.
func script(w *workload, seed int64, n int) []byte {
	var buf bytes.Buffer
	env := testEnv()
	for c := 0; c < w.clients; c++ {
		g := w.gen(seed, c, env)
		for i := 0; i < n; i++ {
			o := g.next()
			fmt.Fprintf(&buf, "%d\t%d\t%s\n", c, o.session, o.query)
		}
	}
	return buf.Bytes()
}

func TestScriptDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := script(w, 7, 300), script(w, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different scripts", w.name)
		}
		if bytes.Equal(a, script(w, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
	}
}

func TestClientsDiffer(t *testing.T) {
	env := testEnv()
	w, _ := workloadByName("chat-light")
	a, b := w.gen(3, 0, env), w.gen(3, 1, env)
	same := true
	for i := 0; i < 50; i++ {
		if a.next() != b.next() {
			same = false
		}
	}
	if same {
		t.Error("two clients of one seed share a script")
	}
}

// TestWhatIfsStayValid replays many candidate conversations against their
// own load bookkeeping: each opens with a solve and holds 3–5 what-ifs, no
// decrease exceeds the current load, and every state stays within the
// scripted band.
func TestWhatIfsStayValid(t *testing.T) {
	env := testEnv()
	base := map[int]float64{}
	for _, b := range env.loads {
		base[b.bus] = b.mw
	}
	if _, ok := base[7]; ok {
		t.Fatal("a bus under 10 MW was scripted")
	}
	for seed := int64(1); seed <= 20; seed++ {
		for c, conv := range candidateConversations(seed, 100, env.loads) {
			if conv[0].kind != kSolve {
				t.Fatalf("seed %d conversation %d opens with %q, not a solve", seed, c, conv[0].query)
			}
			if n := len(conv) - 1; n < minFollowUps || n > maxFollowUps {
				t.Fatalf("seed %d conversation %d holds %d what-ifs", seed, c, n)
			}
			checkWhatIfLoads(t, base, conv[1:])
		}
	}
}

func checkWhatIfLoads(t *testing.T, base map[int]float64, whatIfs []op) {
	t.Helper()
	cur := map[int]float64{}
	for i, o := range whatIfs {
		prev, ok := cur[o.bus]
		if !ok {
			prev = round2(base[o.bus])
		}
		if !closeTo(o.prevMW, prev, 1e-9) {
			t.Fatalf("what-if %d: prev %.2f, bookkeeping says %.2f", i, o.prevMW, prev)
		}
		if o.kind == kDecrease && o.prevMW-o.newMW >= o.prevMW {
			t.Fatalf("what-if %d: %q decreases by the whole load", i, o.query)
		}
		lo, hi := loMul*base[o.bus]-0.1, hiMul*base[o.bus]+0.1
		if o.newMW < lo || o.newMW > hi {
			t.Fatalf("what-if %d: %q leaves the band [%.1f, %.1f]", i, o.query, lo, hi)
		}
		cur[o.bus] = o.newMW
	}
}

// TestOPFGenDrawsWholeConversations checks that a client's script is a
// sequence of whole pooled conversations on its own session.
func TestOPFGenDrawsWholeConversations(t *testing.T) {
	env := testEnv()
	env.whatIfs = env.candidates[:3]
	g := newOPFGen(5, 1, env)
	var convs [][]op
	for i := 0; i < 200; i++ {
		o := g.next()
		if o.kind == kSolve {
			convs = append(convs, nil)
		}
		if len(convs) == 0 {
			t.Fatalf("the script opens with %q, not a solve", o.query)
		}
		convs[len(convs)-1] = append(convs[len(convs)-1], o)
	}
	for n, conv := range convs[:len(convs)-1] { // the last may be cut short
		if !poolHolds(env.whatIfs, conv) {
			t.Fatalf("conversation %d is not one of the pool's: %+v", n, conv)
		}
	}
}

// poolHolds reports whether conv, on session 1, is one of pool's
// conversations.
func poolHolds(pool [][]op, conv []op) bool {
	for _, c := range pool {
		if len(c) != len(conv) {
			continue
		}
		same := true
		for i, o := range c {
			o.session = 1
			same = same && o == conv[i]
		}
		if same {
			return true
		}
	}
	return false
}

// TestChatOutagesFromPool checks that chat-light asks only about the
// outages the environment lists.
func TestChatOutagesFromPool(t *testing.T) {
	env := testEnv()
	env.outages = []int{3, 11}
	g := newChatGen(9, 0, env)
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		if o := g.next(); o.kind == kOutage {
			if o.branch != 3 && o.branch != 11 {
				t.Fatalf("outage ask about branch %d", o.branch)
			}
			seen[o.branch] = true
		}
	}
	if len(seen) != 2 {
		t.Errorf("asked about branches %v, want both of 3 and 11", seen)
	}
}
