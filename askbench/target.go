package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gridmind"
	"gridmind/internal/agents"
	"gridmind/internal/llm"
	"gridmind/internal/metrics"
	"gridmind/internal/simclock"
)

// target is the system under test: the HTTP server, or the same stack
// in-process through the gridmind facade.
type target interface {
	create(ctx context.Context) (string, error)
	remove(ctx context.Context, id string) error
	ask(ctx context.Context, id, query string) (reply, error)
}

// reply is what a check can see of one answer. tools is known only
// in-process (the HTTP reply carries no tool steps).
type reply struct {
	text    string
	success bool
	tools   []string
}

// --- HTTP ---

type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string, conns int) *httpTarget {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &httpTarget{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (h *httpTarget) close() { h.client.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out (when non-nil),
// failing on any status other than want.
func (h *httpTarget) do(ctx context.Context, method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return nil
}

func (h *httpTarget) create(ctx context.Context) (string, error) {
	var out struct {
		ID string `json:"session_id"`
	}
	if err := h.do(ctx, http.MethodPost, "/sessions", map[string]any{}, http.StatusCreated, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

func (h *httpTarget) remove(ctx context.Context, id string) error {
	return h.do(ctx, http.MethodDelete, "/sessions/"+id, nil, http.StatusNoContent, nil)
}

func (h *httpTarget) ask(ctx context.Context, id, query string) (reply, error) {
	var out struct {
		Reply   string `json:"reply"`
		Success bool   `json:"success"`
	}
	err := h.do(ctx, http.MethodPost, "/ask", map[string]any{"query": query, "session_id": id}, http.StatusOK, &out)
	return reply{text: out.Reply, success: out.Success}, err
}

// --- in-process ---

// newCoordinator builds a session as gridmind.New builds one for the
// simulated model (virtual clock, latency absorbed, shared engine), but with
// the timing wrapper as its model client. Passing the wrapper through
// Options.Client instead would put the session on the real clock, where
// Agent.Run sleeps for each tool call's duration after the call returns.
func newCoordinator(eng *gridmind.Engine, client llm.Client) *agents.Coordinator {
	return agents.NewCoordinator(agents.Config{
		Client:        client,
		Clock:         simclock.NewSim(time.Now()),
		Recorder:      metrics.NewRecorder(),
		Engine:        eng,
		AbsorbLatency: true,
	})
}

// inprocTarget serves the script in-process with the server's construction
// (one shared engine, default model, asks serialized per session), so the
// HTTP run minus this one is the server's overhead. Its asks are traced;
// untraced serves the same sessions without spans.
type inprocTarget struct {
	eng    *gridmind.Engine
	client llm.Client
	tr     *tracer

	mu       sync.Mutex
	next     int
	sessions map[string]*inprocSession
	// closed sums the outage-cache counters of removed sessions.
	closedHits, closedMisses int64
}

type inprocSession struct {
	mu sync.Mutex
	gm *agents.Coordinator
}

// newInprocTarget builds sessions as newCoordinator does, with the timing
// wrapper around the server's default model.
func newInprocTarget(tr *tracer) (*inprocTarget, error) {
	sim, err := gridmind.NewSimClient(gridmind.ModelGPTO3)
	if err != nil {
		return nil, err
	}
	return &inprocTarget{eng: gridmind.NewEngine(), client: timedClient{inner: sim}, tr: tr,
		sessions: map[string]*inprocSession{}}, nil
}

func (t *inprocTarget) create(context.Context) (string, error) {
	gm := newCoordinator(t.eng, t.client)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := "s" + strconv.Itoa(t.next)
	t.sessions[id] = &inprocSession{gm: gm}
	return id, nil
}

func (t *inprocTarget) remove(_ context.Context, id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[id]
	if !ok {
		return fmt.Errorf("no session %s", id)
	}
	h, m := s.gm.Session.ContCache().Stats()
	t.closedHits += int64(h)
	t.closedMisses += int64(m)
	delete(t.sessions, id)
	return nil
}

func (t *inprocTarget) session(id string) (*inprocSession, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[id]
	if !ok {
		return nil, fmt.Errorf("no session %s", id)
	}
	return s, nil
}

func (t *inprocTarget) ask(ctx context.Context, id, query string) (reply, error) {
	return t.askTraced(ctx, id, query, true)
}

// untraced serves an inprocTarget's sessions without spans; the timing
// wrapper passes calls straight through when the ask carries no collector.
type untraced struct{ *inprocTarget }

func (u untraced) ask(ctx context.Context, id, query string) (reply, error) {
	return u.askTraced(ctx, id, query, false)
}

func (t *inprocTarget) askTraced(ctx context.Context, id, query string, traced bool) (reply, error) {
	s, err := t.session(id)
	if err != nil {
		return reply{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var ex *gridmind.Exchange
	if traced {
		ex, err = t.tr.ask(ctx, s.gm, query)
	} else {
		ex, err = s.gm.Handle(ctx, query)
	}
	if err != nil {
		return reply{}, err
	}
	r := reply{text: ex.Reply, success: ex.Success, tools: []string{}}
	for _, turn := range ex.Turns {
		for _, st := range turn.Steps {
			if st.Kind == "tool_call" {
				r.tools = append(r.tools, st.Tool)
			}
		}
	}
	return r, nil
}

// contCacheStats sums the outage-cache counters of every session this
// target has served.
func (t *inprocTarget) contCacheStats() (hits, misses int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hits, misses = t.closedHits, t.closedMisses
	for _, s := range t.sessions {
		h, m := s.gm.Session.ContCache().Stats()
		hits += int64(h)
		misses += int64(m)
	}
	return hits, misses
}

// network returns a copy of a session's current network.
func (t *inprocTarget) network(id string) (*gridmind.Network, error) {
	s, err := t.session(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.gm.Session.Network()
	if err != nil {
		return nil, err
	}
	return n.Clone(), nil
}
