package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// A probe is an ask sequence on which the program is known to fail. The
// timed scripts hold only operations the program answers correctly, so
// that a run's failed count is a regression and not sampling noise; the
// known failures are asked once after the window instead, on one of the
// workload's sessions, and reported beside the metrics (info
// known_failures_probed and known_failures_shown, one note each). They do
// not count in attempted or failed.
type probe struct {
	name string
	ops  []op
}

// probes lists the workload's known failures: the case14 outages the
// program answers with success:false (chat-light), and the first recorded
// what-if conversation of each known defect (opf-whatif).
func (b *bench) probes() []probe {
	var ps []probe
	switch b.w.name {
	case "chat-light":
		for br, o := range b.golden.Case14.Outages {
			if br < outageBranches && !o.Success {
				ps = append(ps, probe{fmt.Sprintf("outage of branch %d (%s)", br, o.Description), []op{{
					kind: kOutage, branch: br, query: fmt.Sprintf("Analyze the outage of branch %d", br),
				}}})
			}
		}
	case "opf-whatif":
		for _, known := range []error{errFallback, errStaleCost} {
			for _, d := range b.golden.WhatIfs.Defects {
				if strings.Contains(d.Error, known.Error()) {
					ps = append(ps, probe{fmt.Sprintf("what-if conversation %d, ask %d (%s)", d.Conversation, d.Op, known),
						b.env.candidates[d.Conversation][:d.Op+1]})
					break
				}
			}
		}
	}
	return ps
}

// runProbes asks every probe on the first of ids and records whether its
// last ask still fails. Earlier asks of a probe set its session up and
// must pass.
func (b *bench) runProbes(ctx context.Context, t target, ids []string, res *result) error {
	ps := b.probes()
	if len(ps) == 0 {
		return nil
	}
	shown := 0
	for _, p := range ps {
		var cost float64
		for i, o := range p.ops {
			rep, err := t.ask(ctx, ids[0], o.query)
			if err != nil {
				return fmt.Errorf("probe %s: %w", p.name, err)
			}
			cerr := checkReply(b.golden, o, rep, &cost)
			if cerr == nil && !rep.success {
				cerr = errors.New("success:false")
			}
			if i < len(p.ops)-1 {
				if cerr != nil {
					return fmt.Errorf("probe %s: set-up ask %q: %w", p.name, o.query, cerr)
				}
				continue
			}
			outcome := "now answered correctly"
			if cerr != nil {
				shown++
				outcome = "still fails: " + cerr.Error()
			}
			res.Notes = append(res.Notes, fmt.Sprintf("known failure %s: %s", p.name, outcome))
		}
	}
	res.Info["known_failures_probed"] = float64(len(ps))
	res.Info["known_failures_shown"] = float64(shown)
	return nil
}
