package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// kind classifies one operation of a script. The simulated model maps each
// kind to a fixed tool sequence (toolsFor), which the /metrics cross-check
// and the in-process runs both hold the program to.
type kind int

const (
	kStatus     kind = iota // network status, served from session state
	kRanking                // top-k ranking from the session's cached sweep
	kOutage                 // one outage, served from the session's outage cache
	kContStatus             // contingency status
	kSolve                  // "Solve IEEE 118": reload + ACOPF
	kSetLoad                // load what-if "to X MW"
	kIncrease               // load what-if "increase by X MW"
	kDecrease               // load what-if "decrease by X MW"
	kN1                     // create session, fresh N-1 sweep, delete session
)

// op is one scripted operation.
type op struct {
	kind    kind
	query   string
	session int // index into the run's session list; unused by kN1
	topK    int // kRanking, kN1
	branch  int // kOutage
	bus     int // what-ifs: external bus number
	prevMW  float64
	newMW   float64
}

// toolsFor is the tool sequence the simulated model runs for a kind.
func toolsFor(k kind) []string {
	switch k {
	case kStatus:
		return []string{"get_network_status"}
	case kRanking, kN1:
		return []string{"solve_base_case", "run_n1_contingency_analysis"}
	case kOutage:
		return []string{"analyze_specific_contingency"}
	case kContStatus:
		return []string{"get_contingency_status"}
	case kSolve:
		return []string{"solve_acopf_case"}
	case kSetLoad:
		return []string{"modify_bus_load"}
	case kIncrease, kDecrease:
		return []string{"get_network_status", "modify_bus_load"}
	}
	return nil
}

// generator yields one client's script; the same seed and client always
// yield the same sequence.
type generator interface {
	next() op
}

// workload is one traffic mix: its client count, the case its layers are
// replayed on, how sessions are prepared, and each client's script.
type workload struct {
	name     string
	clients  int
	caseName string
	// solverTool is the tool whose time minus the replayed solver time is
	// tools.self_ms; empty when the workload's tools run no solver.
	solverTool string
	// rssOps is the operation count at which the server's peak RSS is
	// read, so that the figure does not grow with throughput: about a
	// seventh of what a 45 s window serves on a 2-vCPU Xeon.
	rssOps int
	setup  func(ctx context.Context, t target, env *scriptEnv) ([]string, error)
	gen    func(seed int64, client int, env *scriptEnv) generator
}

// scriptEnv holds the case data and recorded pools the generators draw
// from.
type scriptEnv struct {
	// loads lists case118's load-carrying buses and their base demand.
	loads []busLoad
	// outages lists the case14 branches whose outage the program analyses
	// (the reference reply has success:true).
	outages []int
	// candidates holds every opf-whatif conversation -record tried;
	// whatIfs those the program answers correctly (golden.json's kept
	// candidates).
	candidates [][]op
	whatIfs    [][]op
}

type busLoad struct {
	bus int
	mw  float64
}

var workloads = []*workload{
	{
		name:    "chat-light",
		clients: chatClients, caseName: "case14", rssOps: 20000,
		setup: setupChat, gen: newChatGen,
	},
	{
		name:    "opf-whatif",
		clients: opfClients, caseName: "case118", solverTool: "modify_bus_load", rssOps: 30,
		setup: setupOPF, gen: newOPFGen,
	},
	{
		name:    "n1-fresh",
		clients: 1, caseName: "case118", solverTool: "run_n1_contingency_analysis", rssOps: 200,
		setup: setupN1, gen: newN1Gen,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// clientRand derives one client's stream from the workload seed.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17))
}

// The mixes follow the seeded mixed conversation of the repository's
// reliability experiment (internal/experiments/reliability.go): one session
// per conversation, driven in order; a conversation is a solve and then
// 3–5 follow-ups; each follow-up kind is equally likely; top-k asks take
// k in 3–5; outage asks pick among branches 0–14. Each workload keeps the
// follow-up kinds it is about, and only operations the program answers
// correctly; the rest are probed after the window (see probes.go).
const (
	minFollowUps = 3
	maxFollowUps = 5
	minTopK      = 3
	maxTopK      = 5
	// outageBranches bounds the branches outage asks pick among; the
	// islanding outage of branch 13, which the program answers with
	// success:false, is left to the probes.
	outageBranches = 15
)

func topK(rng *rand.Rand) int { return minTopK + rng.Intn(maxTopK-minTopK+1) }

// --- chat-light ---

// chatGen scripts one client's follow-ups on its own case14 session, which
// set-up has solved and swept: the reliability mix's status, top-k and
// outage asks, plus the contingency status ask, each a quarter.
type chatGen struct {
	rng     *rand.Rand
	session int
	outages []int
}

func newChatGen(seed int64, client int, env *scriptEnv) generator {
	return &chatGen{rng: clientRand(seed, client), session: client, outages: env.outages}
}

func (g *chatGen) next() op {
	o := op{session: g.session}
	switch g.rng.Intn(4) {
	case 0:
		o.kind, o.query = kStatus, "What is the current network status?"
	case 1:
		o.kind, o.topK = kRanking, topK(g.rng)
		o.query = fmt.Sprintf("Rank the top %d critical contingencies on IEEE 14", o.topK)
	case 2:
		o.kind, o.branch = kOutage, g.outages[g.rng.Intn(len(g.outages))]
		o.query = fmt.Sprintf("Analyze the outage of branch %d", o.branch)
	default:
		// "contingency" would make the model rerun the sweep; the
		// reinforcement wording reaches the status tool.
		o.kind, o.query = kContStatus, "Show the reinforcement study status"
	}
	return o
}

// chatClients is chat-light's client count; each client has a session of
// its own. One client keeps the client and the server within the host's
// two cores; with two, its p90 and throughput followed the scheduler.
const chatClients = 1

func setupChat(ctx context.Context, t target, _ *scriptEnv) ([]string, error) {
	ids := make([]string, chatClients)
	for i := range ids {
		id, err := t.create(ctx)
		if err != nil {
			return nil, err
		}
		ids[i] = id
		for _, q := range []string{
			"Solve IEEE 14",
			"Run N-1 contingency analysis on IEEE 14",
			"What is the current network status?",
			"Rank the top 5 critical contingencies on IEEE 14",
			"Analyze the outage of branch 0",
			"Show the reinforcement study status",
		} {
			if err := warmAsk(ctx, t, id, q); err != nil {
				return nil, err
			}
		}
	}
	return ids, nil
}

// --- opf-whatif ---

// What-ifs keep each bus within [loMul, hiMul] of its base demand, so every
// scripted state stays a plausible operating point. A ±50% band sent 0–15%
// of asks (depending on the seed) down the solver's recovery ladder, which
// made the p90 of a 100-ask window bimodal; the ladder still shows in the
// p99 and in opf.recovery_share.
const (
	loMul = 0.8
	hiMul = 1.2
)

// whatIfScripter scripts opf-whatif conversations: "Solve IEEE 118", which
// reloads the pristine case, then 3–5 load what-ifs, each "to X MW",
// "increase by X MW" or "decrease by X MW" with equal odds. -record runs
// poolCandidates of them and keeps, in golden.json, those the program
// answers correctly; the timed scripts draw from those.
type whatIfScripter struct {
	rng   *rand.Rand
	loads []busLoad
	cur   map[int]float64 // the session's current bus loads, as the program reports them
}

func (g *whatIfScripter) load(b busLoad) float64 {
	if v, ok := g.cur[b.bus]; ok {
		return v
	}
	return round2(b.mw)
}

// conversation scripts the next conversation.
func (g *whatIfScripter) conversation() []op {
	clear(g.cur) // the solve reloads the pristine case
	conv := []op{{kind: kSolve, query: "Solve IEEE 118"}}
	for n := minFollowUps + g.rng.Intn(maxFollowUps-minFollowUps+1); n > 0; n-- {
		conv = append(conv, g.whatIf())
	}
	return conv
}

func (g *whatIfScripter) whatIf() op {
	b := g.loads[g.rng.Intn(len(g.loads))]
	cur := g.load(b)
	lo, hi := round1(loMul*b.mw), round1(hiMul*b.mw)
	o := op{bus: b.bus, prevMW: cur}
	step := func(max float64) float64 { return round1(1 + g.rng.Float64()*(max-1)) }
	switch r := g.rng.Intn(3); {
	case r == 1 && hi-cur >= 1:
		d := step(hi - cur)
		o.kind, o.newMW = kIncrease, round2(cur+d)
		o.query = fmt.Sprintf("Increase the load at bus %d by %.1f MW", b.bus, d)
	case r == 2 && cur-lo >= 1:
		// A decrease never exceeds the current load: the program would
		// otherwise be asked for a negative demand, which its schema rejects.
		d := step(cur - lo)
		o.kind, o.newMW = kDecrease, round2(cur-d)
		o.query = fmt.Sprintf("Decrease the load at bus %d by %.1f MW", b.bus, d)
	default:
		v := round1(lo + g.rng.Float64()*(hi-lo))
		o.kind, o.newMW = kSetLoad, v
		o.query = fmt.Sprintf("Set the load at bus %d to %.1f MW", b.bus, v)
	}
	g.cur[b.bus] = o.newMW
	return o
}

// candidateConversations scripts the n conversations -record tries, the
// same ones for the same seed and loads.
func candidateConversations(seed int64, n int, loads []busLoad) [][]op {
	g := &whatIfScripter{rng: clientRand(seed, 0), loads: loads, cur: map[int]float64{}}
	convs := make([][]op, n)
	for i := range convs {
		convs[i] = g.conversation()
	}
	return convs
}

// opfGen scripts one client's conversations on its own case118 session,
// each drawn at random from the recorded pool.
type opfGen struct {
	rng     *rand.Rand
	session int
	pool    [][]op
	queue   []op // the rest of the current conversation
}

func newOPFGen(seed int64, client int, env *scriptEnv) generator {
	return &opfGen{rng: clientRand(seed, client), session: client, pool: env.whatIfs}
}

func (g *opfGen) next() op {
	if len(g.queue) == 0 {
		g.queue = g.pool[g.rng.Intn(len(g.pool))]
	}
	o := g.queue[0]
	g.queue = g.queue[1:]
	o.session = g.session
	return o
}

// opfClients is opf-whatif's client count; each client has a session of
// its own.
const opfClients = 2

// warmBus is the bus set-up nudges to compile the what-if path.
const warmBus = 15

func setupOPF(ctx context.Context, t target, _ *scriptEnv) ([]string, error) {
	ids := make([]string, opfClients)
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		id, err := t.create(ctx)
		if err != nil {
			return nil, err
		}
		ids[i] = id
		wg.Add(1)
		// Both sessions solve at once so the engine pools one interior-point
		// context per client, as the timed window needs.
		go func() {
			defer wg.Done()
			for _, q := range []string{
				"Solve IEEE 118",
				fmt.Sprintf("Increase the load at bus %d by 5 MW", warmBus),
				"Solve IEEE 118",
			} {
				if errs[i] = warmAsk(ctx, t, id, q); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// --- n1-fresh ---

type n1Gen struct{ rng *rand.Rand }

func newN1Gen(seed int64, client int, _ *scriptEnv) generator {
	return &n1Gen{rng: clientRand(seed, client)}
}

func (g *n1Gen) next() op {
	k := topK(g.rng)
	return op{kind: kN1, topK: k,
		query: fmt.Sprintf("Run N-1 contingency analysis on IEEE 118 and report the top %d", k)}
}

func setupN1(ctx context.Context, t target, _ *scriptEnv) ([]string, error) {
	for i := 0; i < 2; i++ {
		id, err := t.create(ctx)
		if err != nil {
			return nil, err
		}
		if err := warmAsk(ctx, t, id, "Run N-1 contingency analysis on IEEE 118 and report the top 5"); err != nil {
			return nil, err
		}
		if err := t.remove(ctx, id); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// warmAsk runs one set-up ask, which must succeed.
func warmAsk(ctx context.Context, t target, id, q string) error {
	r, err := t.ask(ctx, id, q)
	if err != nil {
		return fmt.Errorf("set-up ask %q: %w", q, err)
	}
	if !r.success {
		return fmt.Errorf("set-up ask %q failed: %s", q, r.text)
	}
	return nil
}

// newScriptEnv reads the case data the generators need.
func newScriptEnv(loads map[int]float64) *scriptEnv {
	env := &scriptEnv{}
	for bus, mw := range loads {
		// Buses under 10 MW leave too little room for what-if steps.
		if mw >= 10 {
			env.loads = append(env.loads, busLoad{bus, mw})
		}
	}
	sort.Slice(env.loads, func(i, j int) bool { return env.loads[i].bus < env.loads[j].bus })
	return env
}

// usePools fills env's outage branches and what-if conversations from the
// reference record g.
func (env *scriptEnv) usePools(g *golden) error {
	env.outages = nil
	for b, o := range g.Case14.Outages {
		if b < outageBranches && o.Success {
			env.outages = append(env.outages, b)
		}
	}
	p := g.WhatIfs
	env.candidates = candidateConversations(p.Seed, p.Candidates, env.loads)
	if d := scriptDigest(env.candidates); d != p.Digest {
		return fmt.Errorf("golden.json records what-if candidates %s, the scripter makes %s; rerun with -record", p.Digest, d)
	}
	env.whatIfs = nil
	for _, i := range p.Kept {
		env.whatIfs = append(env.whatIfs, env.candidates[i])
	}
	if len(env.outages) == 0 || len(env.whatIfs) == 0 {
		return fmt.Errorf("golden.json leaves no outage or what-if to script; rerun with -record")
	}
	return nil
}

// scriptDigest hashes the queries of convs.
func scriptDigest(convs [][]op) string {
	h := sha256.New()
	for _, conv := range convs {
		for _, o := range conv {
			fmt.Fprintf(h, "%s\n", o.query)
		}
		h.Write([]byte{0})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }
func round2(v float64) float64 { return math.Round(v*100) / 100 }
