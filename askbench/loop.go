package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// maxNotes bounds the failure messages a run keeps for its report.
const maxNotes = 5

// loopResult is one side of a closed-loop window.
type loopResult struct {
	lat []time.Duration
	// done and ok hold, for each operation in lat's order, when it
	// completed (from the window's start) and whether it succeeded.
	done       []time.Duration
	ok         []bool
	attempted  int
	failed     int
	mismatched int
	// defects counts replies with a known defect (errStaleCost,
	// errFallback): failed, but not contradictions of the reference.
	defects int
	notes   []string
	// tools counts the tool calls the model makes for every answered ask,
	// for the /metrics cross-check.
	tools   map[string]int
	elapsed time.Duration
}

func (r *loopResult) note(err error) {
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, err.Error())
	}
}

// record accounts one operation: it fails on a transport error or
// unexpected status, on success:false, or on a reply that contradicts the
// reference. cost follows the session's cost from reply to reply (see
// checkReply).
func (r *loopResult) record(g *golden, o op, rep reply, answered bool, err error, cost *float64) {
	r.attempted++
	if answered {
		for _, t := range toolsFor(o.kind) {
			r.tools[t]++
		}
	}
	if err != nil {
		*cost = 0 // the session's state is no longer known
		r.failed++
		r.note(err)
		return
	}
	if err := checkReply(g, o, rep, cost); err != nil {
		r.failed++
		if errors.Is(err, errStaleCost) || errors.Is(err, errFallback) {
			r.defects++
		} else {
			r.mismatched++
		}
		r.note(err)
		return
	}
	if !rep.success {
		r.failed++
	}
}

func (r *loopResult) merge(o *loopResult) {
	r.lat = append(r.lat, o.lat...)
	r.done = append(r.done, o.done...)
	r.ok = append(r.ok, o.ok...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.mismatched += o.mismatched
	r.defects += o.defects
	for _, n := range o.notes {
		if len(r.notes) < maxNotes {
			r.notes = append(r.notes, n)
		}
	}
	for t, c := range o.tools {
		r.tools[t] += c
	}
}

// side is one way of serving a script: a target and the sessions set up on
// it, in the order the script's session indices name them.
type side struct {
	t   target
	ids []string
	// state numbers the sessions the side serves (below len(sides)):
	// sides that serve the same sessions share it, and so follow one cost.
	state int
}

// loopSpec is one closed-loop window.
type loopSpec struct {
	sides []side
	gens  []generator // one client each
	// route names the sides a client's i-th operation runs on, in order;
	// nil runs every operation on sides[0]. Sides that take turns within
	// one window share the host's drift.
	route func(i int) []int
	// The window lasts d, and past d until minOps operations have
	// completed (at most another d), so the reported percentiles keep
	// enough samples beyond them.
	d      time.Duration
	minOps int
	// onOp, when non-nil, runs on the client's goroutine after each
	// operation, outside its timing, with the number completed so far.
	onOp func(done int64)
}

// closedLoop runs one client goroutine per generator; each sends its next
// operation when the previous one returns, to every side route names. It
// returns one result per side.
func closedLoop(ctx context.Context, g *golden, spec loopSpec) []*loopResult {
	start := time.Now()
	end, hardEnd := start.Add(spec.d), start.Add(2*spec.d)
	route := spec.route
	if route == nil {
		route = func(int) []int { return []int{0} }
	}
	var done atomic.Int64
	parts := make([][]*loopResult, len(spec.gens))
	var wg sync.WaitGroup
	for c := range spec.gens {
		parts[c] = make([]*loopResult, len(spec.sides))
		for s := range parts[c] {
			parts[c][s] = &loopResult{tools: map[string]int{}}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			costs := make([]float64, len(spec.sides))
			for i := 0; ctx.Err() == nil; i++ {
				now := time.Now()
				if !now.Before(end) && (done.Load() >= int64(spec.minOps) || !now.Before(hardEnd)) {
					return
				}
				o := spec.gens[c].next()
				for _, s := range route(i) {
					sd, r := spec.sides[s], parts[c][s]
					t0 := time.Now()
					rep, answered, err := runOp(ctx, sd.t, sd.ids, o)
					r.lat = append(r.lat, time.Since(t0))
					failed := r.failed
					r.record(g, o, rep, answered, err, &costs[sd.state])
					r.done = append(r.done, time.Since(start))
					r.ok = append(r.ok, r.failed == failed)
				}
				n := done.Add(1)
				if spec.onOp != nil {
					spec.onOp(n)
				}
			}
		}()
	}
	wg.Wait()
	out := make([]*loopResult, len(spec.sides))
	for s := range out {
		out[s] = &loopResult{tools: map[string]int{}, elapsed: time.Since(start)}
		for c := range parts {
			out[s].merge(parts[c][s])
		}
	}
	return out
}

// runOp performs one operation; answered reports whether its ask got a
// reply (so the model ran its tools).
func runOp(ctx context.Context, t target, ids []string, o op) (rep reply, answered bool, err error) {
	if o.kind != kN1 {
		rep, err = t.ask(ctx, ids[o.session], o.query)
		return rep, err == nil, err
	}
	id, err := t.create(ctx)
	if err != nil {
		return rep, false, err
	}
	rep, err = t.ask(ctx, id, o.query)
	answered = err == nil
	if rerr := t.remove(ctx, id); err == nil {
		err = rerr
	}
	return rep, answered, err
}
