package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want float64
		ok   bool
	}{
		{0.5, 20, 10, true},
		{0.5, 19, 10, false},
		{0.9, 100, 90, true},
		{0.9, 99, 90, false},
		{0.99, 1000, 990, true},
		{0.99, 999, 990, false},
	} {
		v, ok := percentile(ramp(c.n), c.p)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("p%g of %d samples = %g, %t; want %g, %t", c.p*100, c.n, v, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestMinSamplesFor(t *testing.T) {
	for p, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := minSamplesFor(p); got != want {
			t.Errorf("minSamplesFor(%g) = %d, want %d", p, got, want)
		}
	}
}

func TestPercentileReportedOnlyWithSamplesBeyond(t *testing.T) {
	r := newResult(nil)
	r.percentile("ask_p99_ms", ramp(50), 0.99)
	if _, ok := r.Info["ask_p99_ms"]; ok || len(r.Notes) != 1 {
		t.Errorf("unreportable p99: info %v, notes %q", r.Info, r.Notes)
	}
	r = newResult(nil)
	r.percentile("ask_p50_ms", ramp(50), 0.5)
	if r.Info["ask_p50_ms"] != 25 || r.Samples["ask_p50_ms"] != 50 {
		t.Errorf("p50 of 50 samples: %+v", r)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

// fakeWindow builds a loop result of n operations a second for secs seconds,
// each taking lat(second) milliseconds and succeeding.
func fakeWindow(n, secs int, lat func(sec int) float64) *loopResult {
	l := &loopResult{elapsed: time.Duration(secs) * time.Second}
	for s := 0; s < secs; s++ {
		for i := 0; i < n; i++ {
			l.done = append(l.done, time.Duration(s)*time.Second+time.Duration(i)*time.Second/time.Duration(n))
			l.lat = append(l.lat, time.Duration(lat(s)*float64(time.Millisecond)))
			l.ok = append(l.ok, true)
		}
	}
	return l
}

func TestSlicesIgnoreShortBurst(t *testing.T) {
	// 45 s at 100 operations a second; 10 s of it twice as slow.
	l := fakeWindow(100, 45, func(s int) float64 {
		if s >= 20 && s < 30 {
			return 2
		}
		return 1
	})
	f := slicesOf(l)
	if len(f.p50) != maxSlices {
		t.Fatalf("%d slices, want %d", len(f.p50), maxSlices)
	}
	if m := median(f.p50); m != 1 {
		t.Errorf("median slice p50 %g ms, want 1", m)
	}
	if m := median(f.okPerS); math.Abs(m-100) > 1e-9 {
		t.Errorf("median slice throughput %g/s, want 100", m)
	}
	// A change that slows every operation moves the median in full.
	f = slicesOf(fakeWindow(100, 45, func(int) float64 { return 1.5 }))
	if m := median(f.p90); m != 1.5 {
		t.Errorf("median slice p90 %g ms, want 1.5", m)
	}
}

func TestSlicesNeedReportableP90(t *testing.T) {
	need := minSamplesFor(0.9)
	// 3.5 slices' worth of operations make 3 slices.
	f := slicesOf(fakeWindow(need*7/2, 1, func(int) float64 { return 1 }))
	if len(f.p90) != 3 {
		t.Errorf("%d slices from %d operations, want 3", len(f.p90), need*7/2)
	}
	if f := slicesOf(fakeWindow(need-1, 1, func(int) float64 { return 1 })); len(f.p50) != 0 {
		t.Errorf("%d slices from %d operations, want none", len(f.p50), need-1)
	}
}
