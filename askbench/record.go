package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"gridmind"
)

// The opf-whatif candidates -record tries.
const (
	poolSeed       = 1
	poolCandidates = 160
)

// recordWhatIfs runs the opf-whatif candidate conversations on one case118
// session and records which the program answers correctly.
func recordWhatIfs(ask func(string) (*gridmind.Exchange, error), g *golden) error {
	if err := g.readMarginalCosts(); err != nil {
		return err
	}
	env, err := caseEnv()
	if err != nil {
		return err
	}
	convs := candidateConversations(poolSeed, poolCandidates, env.loads)
	g.WhatIfs = whatIfPool{Seed: poolSeed, Candidates: poolCandidates, Digest: scriptDigest(convs)}
	for c, conv := range convs {
		var cost float64
		failed := false
		for i, o := range conv {
			ex, err := ask(o.query)
			if err != nil {
				return err
			}
			cerr := checkReply(g, o, reply{text: ex.Reply, success: ex.Success}, &cost)
			if cerr == nil && !ex.Success {
				cerr = fmt.Errorf("%q: success:false", o.query)
			}
			if cerr != nil {
				g.WhatIfs.Defects = append(g.WhatIfs.Defects, poolDefect{Conversation: c, Op: i, Error: cerr.Error()})
				failed = true
				break
			}
		}
		if !failed {
			g.WhatIfs.Kept = append(g.WhatIfs.Kept, c)
		}
	}
	return nil
}

// recordGolden asks the program the reference questions on fresh sessions
// and writes their parsed replies to path.
func recordGolden(ctx context.Context, path string) error {
	eng := gridmind.NewEngine()
	var g golden

	gm := gridmind.New(gridmind.Options{Engine: eng})
	ask := func(q string) (*gridmind.Exchange, error) {
		ex, err := gm.Ask(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", q, err)
		}
		return ex, nil
	}
	ex, err := ask("Solve IEEE 14")
	if err != nil {
		return err
	}
	if _, g.Case14.Objective, err = parseSolve(ex.Reply); err != nil {
		return err
	}
	if _, err := ask("Run N-1 contingency analysis on IEEE 14"); err != nil {
		return err
	}
	if ex, err = ask("What is the current network status?"); err != nil {
		return err
	}
	st, err := parseStatus(ex.Reply)
	if err != nil {
		return err
	}
	g.Case14.Status = &st
	n14, err := gridmind.LoadCase("case14")
	if err != nil {
		return err
	}
	if ex, err = ask(fmt.Sprintf("Rank the top %d critical contingencies on IEEE 14", len(n14.Branches))); err != nil {
		return err
	}
	if g.Case14.Sweep, err = parseSweep(ex.Reply); err != nil {
		return err
	}
	for k := range n14.Branches {
		if ex, err = ask(fmt.Sprintf("Analyze the outage of branch %d", k)); err != nil {
			return err
		}
		o, err := parseOutage(ex.Reply, ex.Success)
		if err != nil {
			return err
		}
		g.Case14.Outages = append(g.Case14.Outages, o)
	}

	gm = gridmind.New(gridmind.Options{Engine: eng})
	if ex, err = ask("Solve IEEE 118"); err != nil {
		return err
	}
	if _, g.Case118.Objective, err = parseSolve(ex.Reply); err != nil {
		return err
	}
	if ex, err = ask("Run N-1 contingency analysis on IEEE 118 and report the top 10"); err != nil {
		return err
	}
	if g.Case118.Sweep, err = parseSweep(ex.Reply); err != nil {
		return err
	}
	if err := recordWhatIfs(ask, &g); err != nil {
		return err
	}

	raw, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
