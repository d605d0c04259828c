package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// ladder holds the percentiles a timing may be reported at.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile on the ladder that leaves
// at least minTail of n samples beyond it, or the median when none does.
func tailPercentile(n int) float64 {
	best := ladder[0]
	for _, p := range ladder {
		if beyond(n, p) >= minTail {
			best = p
		}
	}
	return best
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) float64 {
	return math.Round(float64(n)*(100-p)/100*1e6) / 1e6
}

// reportPercentile caps a named percentile at what n samples support.
func reportPercentile(want float64, n int) float64 {
	return math.Min(want, tailPercentile(n))
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timing summarises one latency sample set as the record stores it.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail"`
}

func summarize(xs []float64) timing {
	tp := tailPercentile(len(xs))
	return timing{N: len(xs), P50: percentile(xs, 50), TailP: tp, Tail: percentile(xs, tp)}
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
