package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples a reported percentile must leave above it.
// A percentile with fewer is noise from a handful of requests and is not
// reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples and
// whether it has at least minBeyond samples above it. samples must be
// sorted ascending.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// minSamplesFor is the smallest sample count at which percentile(p)
// is reportable.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		idx := int(math.Ceil(p*float64(n))) - 1
		if n-1-idx >= minBeyond {
			return n
		}
	}
}

// median of unsorted values (the mean of the middle pair for even counts).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// millis converts durations to sorted float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// ratio returns num/den, or 0 when the layer saw no lookups at all.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// maxSlices is how many equal time slices of its window an end-to-end run
// measures separately. The run reports the median over the slices, so a
// burst of host slowdown that covers less than half the window does not
// move it; a change to the program moves every slice.
const maxSlices = 9

// sliceFigures holds, per time slice of a window, the p50 and p90
// latency in milliseconds and the successful operations per second.
type sliceFigures struct {
	p50, p90, okPerS []float64
}

// slicesOf splits l's window into the most equal time slices, up to
// maxSlices, that each hold enough operations for a reportable p90, and
// returns each slice's figures. It returns none when the whole window
// holds too few.
func slicesOf(l *loopResult) sliceFigures {
	need := minSamplesFor(0.9)
	for n := maxSlices; n >= 1; n-- {
		width := l.elapsed / time.Duration(n)
		lat := make([][]time.Duration, n)
		ok := make([]int, n)
		for i, d := range l.done {
			k := min(int(d/width), n-1) // one completing at the very end is in the last slice
			lat[k] = append(lat[k], l.lat[i])
			if l.ok[i] {
				ok[k]++
			}
		}
		var f sliceFigures
		for k := range lat {
			if len(lat[k]) < need {
				break
			}
			ms := millis(lat[k])
			p50, _ := percentile(ms, 0.5)
			p90, _ := percentile(ms, 0.9)
			f.p50, f.p90 = append(f.p50, p50), append(f.p90, p90)
			f.okPerS = append(f.okPerS, float64(ok[k])/width.Seconds())
		}
		if len(f.p50) == n {
			return f
		}
	}
	return sliceFigures{}
}
