package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. Metrics go into the final JSON line; the
// rest is printed above it and kept in the result file.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds figures outside the benchmark's metric list, such as
	// ask_p99_ms where the run has samples enough for it.
	Info map[string]float64 `json:"info"`
	// Samples is the sample count behind each percentile.
	Samples map[string]int    `json:"samples"`
	Notes   []string          `json:"notes,omitempty"`
	Env     map[string]string `json:"env"`
}

// newResult accounts the given windows; the run is correct when no reply
// contradicted its reference and the /metrics cross-check held. Replies
// with a known defect count as failed, not as contradictions.
func newResult(crossErr error, loops ...*loopResult) *result {
	r := &result{Correct: crossErr == nil, Metrics: map[string]metricValue{},
		Info: map[string]float64{}, Samples: map[string]int{}}
	if crossErr != nil {
		r.Notes = append(r.Notes, "/metrics cross-check: "+crossErr.Error())
	}
	for _, l := range loops {
		r.Attempted += l.attempted
		r.Failed += l.failed
		if l.mismatched > 0 {
			r.Correct = false
		}
		r.Info["known_defect_replies"] += float64(l.defects)
		r.Notes = append(r.Notes, l.notes...)
	}
	return r
}

func (r *result) metric(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{v, unit}
}

// percentile reports the p-quantile of sorted latencies under name as an
// info figure. It is left out, with a note, when fewer than minBeyond
// samples lie beyond it.
func (r *result) percentile(name string, sorted []float64, p float64) {
	v, ok := percentile(sorted, p)
	if !ok {
		r.Notes = append(r.Notes, fmt.Sprintf("%s not reported: %d samples leave fewer than %d beyond it", name, len(sorted), minBeyond))
		return
	}
	r.Samples[name] = len(sorted)
	r.Info[name] = v
}

// emit prints the report and the final JSON line, and writes the full
// result to path.
func (r *result) emit(path string) error {
	w := bufio.NewWriter(os.Stdout)
	for _, k := range sortedKeys(r.Env) {
		fmt.Fprintf(w, "env %s %s\n", k, r.Env[k])
	}
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "metric %s %.6g %s%s\n", k, m.Value, m.Unit, sampleNote(r.Samples, k))
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "info %s %.6g%s\n", k, r.Info[k], sampleNote(r.Samples, k))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	fmt.Fprintf(w, "correct %t attempted %d failed %d\n", r.Correct, r.Attempted, r.Failed)
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

func sampleNote(samples map[string]int, k string) string {
	if n, ok := samples[k]; ok {
		return fmt.Sprintf(" (n=%d)", n)
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// environment records what the numbers were measured on and with.
func (b *bench) environment(traceMode int) map[string]string {
	env := map[string]string{
		"workload":   b.w.name,
		"seed":       strconv.FormatInt(b.seed, 10),
		"clients":    strconv.Itoa(b.w.clients),
		"seconds":    strconv.FormatFloat(b.window.Seconds(), 'f', -1, 64),
		"trace":      strconv.Itoa(traceMode),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "none",
		"source":     sourceDigest(b.root),
	}
	if out, err := exec.Command("git", "-C", b.root, "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources, which identifies the code
// measured where the checkout is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "golden.json") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\n", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
