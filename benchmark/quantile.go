package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is one metric over a run's repeats: the reported value (the
// median, unless the caller replaces it) and the quartiles.
type summary struct {
	Q1, Value, Q3 float64
	SamplesTotal  int64 // underlying observations (ops, latency samples) across the repeats
}

func summarize(vals []float64, samples int64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{
		Q1:           quantile(s, 0.25),
		Value:        quantile(s, 0.5),
		Q3:           quantile(s, 0.75),
		SamplesTotal: samples,
	}
}

// percentileUS returns the p-th percentile (nearest rank) of sorted
// nanosecond samples, in microseconds.
func percentileUS(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func medianOf(vals []float64) float64 { return summarize(vals, 0).Value }
