package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of the samples by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99}

// tailPercentile picks the highest ladder percentile that still has at
// least ten of the n samples beyond it, so a reported tail is never one
// outlier; with fewer than twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}
