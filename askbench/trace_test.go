package main

import (
	"testing"
	"time"

	"gridmind"
	"gridmind/internal/agents"
)

func sp(name string, start, end int) span {
	return span{Name: name, Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTime(t *testing.T) {
	parent := sp("agents.ask", 0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"leaf", nil, 100},
		{"disjoint", []span{sp("a", 10, 20), sp("b", 30, 45)}, 75},
		// Overlapping children count once; a child running past the
		// parent counts only inside it.
		{"overlap", []span{sp("a", 10, 30), sp("b", 20, 40), sp("c", 50, 60), sp("d", 90, 120)}, 50},
		{"nested", []span{sp("a", 10, 90), sp("b", 20, 30)}, 20},
		{"unsorted", []span{sp("c", 50, 60), sp("a", 0, 10)}, 80},
		{"outside", []span{sp("a", 200, 300)}, 100},
		{"covering", []span{sp("a", 0, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAskSelfTimes builds a two-ask span tree and checks the per-ask self
// times the agents.self_ms metric is the median of.
func TestAskSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.phase = "script"
	tr.add(
		span{ID: 1, Name: "agents.ask", Start: 0, End: 100},
		span{ID: 2, Parent: 1, Name: "llm.complete", Start: 0, End: 30},
		span{ID: 3, Parent: 1, Name: "tool.get_network_status", Start: 30, End: 50},
		span{ID: 4, Parent: 1, Name: "llm.complete", Start: 60, End: 90},
		span{ID: 5, Name: "agents.ask", Start: 200, End: 260},
		span{ID: 6, Parent: 5, Name: "llm.complete", Start: 210, End: 250},
		span{ID: 7, Name: "agents.plan", Start: 190, End: 199},
	)
	tr.phase = "probe"
	tr.add(span{ID: 8, Name: "agents.ask", Start: 300, End: 400})
	got := tr.askSelfTimes("script", 1)
	if len(got) != 2 || got[0] != 20 || got[1] != 20 {
		t.Errorf("self times %v, want [20 20]", got)
	}
	if d := tr.durations("script", "llm.complete", 1); len(d) != 3 || d[0] != 30 || d[2] != 40 {
		t.Errorf("llm durations %v", d)
	}
}

func TestToolSpansFollowTheirCall(t *testing.T) {
	calls := []span{sp("llm.complete", 0, 10), sp("llm.complete", 30, 40), sp("llm.complete", 60, 70)}
	ex := &gridmind.Exchange{Turns: []*gridmind.Turn{{Steps: []agents.Step{
		{Kind: "tool_call", Tool: "get_network_status", ToolLat: 5},
		{Kind: "tool_call", Tool: "modify_bus_load", ToolLat: 15},
		{Kind: "narration"},
	}}}}
	got, ok := toolSpans(ex, calls)
	if !ok || len(got) != 2 {
		t.Fatalf("tool spans %v aligned=%t", got, ok)
	}
	if got[0].Name != "tool.get_network_status" || got[0].Start != 10 || got[0].End != 15 ||
		got[1].Name != "tool.modify_bus_load" || got[1].Start != 40 || got[1].End != 55 {
		t.Errorf("tool spans %+v", got)
	}
	if _, ok := toolSpans(ex, calls[:2]); ok {
		t.Error("three steps aligned with two model calls")
	}
}
