package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tails: a percentile is reported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// tailLadder lists the tail percentiles the benchmark may report, in per
// mille, highest first.
var tailLadder = []int{999, 995, 990, 980, 950, 900, 750}

// beyond returns how many of n samples lie above the per-mille percentile
// pm: n minus the rank ceil(n·pm/1000) the percentile sits at.
func beyond(n, pm int) int {
	return n - (n*pm+999)/1000
}

// tailPerMille returns the highest ladder percentile no higher than want
// that has at least minBeyond of n samples beyond it, or 0 when none has.
func tailPerMille(n, want int) int {
	for _, pm := range tailLadder {
		if pm <= want && beyond(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is one metric's samples reduced to what the report prints.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	Sum    float64
	// TailPM is the reported tail percentile in per mille (0 = none
	// reportable) and Tail its value.
	TailPM int
	Tail   float64
}

// summarize reduces samples, reporting the tail at the highest percentile
// up to wantPM that the sample-count rule allows (wantPM 0: no tail).
func summarize(samples []float64, wantPM int) summary {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	s := summary{N: len(xs), Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
	for _, x := range xs {
		s.Sum += x
	}
	if s.TailPM = tailPerMille(len(xs), wantPM); s.TailPM > 0 {
		s.Tail = quantile(xs, float64(s.TailPM)/1000)
	}
	return s
}
