package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of samples by the nearest-rank
// method; an empty sample yields 0.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	samples = append([]float64(nil), samples...)
	sort.Float64s(samples)
	idx := int(math.Ceil(q*float64(len(samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return samples[idx]
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// blockedQuantile splits samples (in arrival order) into n consecutive
// blocks, takes the q-quantile of each and returns their median. A tail
// quantile of one run is then not decided by a single stall, which keeps it
// comparable between runs of the same code.
func blockedQuantile(samples []float64, q float64, n int) float64 {
	per := make([]float64, 0, n)
	for b := 0; b < n; b++ {
		lo, hi := b*len(samples)/n, (b+1)*len(samples)/n
		per = append(per, quantile(samples[lo:hi], q))
	}
	return quantile(per, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
