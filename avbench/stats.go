package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have
// above it; fewer make the percentile a statement about a handful of
// requests.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of samples by the
// nearest-rank rule: the value at rank ceil(p*n/100) of the sorted
// samples. It refuses when fewer than minBeyond samples lie beyond that
// rank. samples is sorted in place.
func percentile(samples []float64, p int) (float64, error) {
	n := len(samples)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %d: want 0 < p < 100", p)
	}
	rank := (p*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median returns the middle value of samples (the mean of the two middle
// values for an even count), or NaN when there are none. samples is
// sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}
