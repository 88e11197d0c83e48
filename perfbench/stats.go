package main

import (
	"math"
	"sort"
	"time"
)

// latencySummary is the median plus the highest percentile that still
// has at least ten samples beyond it, with the sample count behind both.
type latencySummary struct {
	N         int     `json:"n"`
	P50Ms     float64 `json:"p50_ms"`
	TailMs    float64 `json:"tail_ms"`
	TailPct   float64 `json:"tail_pct"`
	MaxMs     float64 `json:"max_ms"`
	TailAbove int     `json:"tail_samples_beyond"`
}

// summarize sorts ds in place. The tail is the nearest-rank quantile at
// (n-10)/n, i.e. the largest percentile with ≥10 samples above it; with
// fewer than 20 samples it falls back to the max.
func summarize(ds []time.Duration) latencySummary {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	n := len(ds)
	if n == 0 {
		return latencySummary{}
	}
	s := latencySummary{N: n, P50Ms: ms(median(ds)), MaxMs: ms(ds[n-1])}
	if n < 20 {
		s.TailMs, s.TailPct, s.TailAbove = s.MaxMs, 100, 0
		return s
	}
	k := n - 11 // index with exactly ten samples after it
	s.TailMs = ms(ds[k])
	s.TailPct = 100 * float64(k+1) / float64(n)
	s.TailAbove = n - 1 - k
	return s
}

// median of a sorted slice.
func median(ds []time.Duration) time.Duration {
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
