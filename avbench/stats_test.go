package main

import (
	"math"
	"testing"
)

// TestPercentileTenBeyond pins the nearest-rank percentile and its rule
// that at least ten samples lie beyond the reported one.
func TestPercentileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, p int
		want float64
		ok   bool
	}{
		{20, 50, 10, true},    // rank 10, 10 beyond
		{19, 50, 0, false},    // rank 10, 9 beyond
		{100, 90, 90, true},   // rank 90, 10 beyond
		{100, 91, 0, false},   // rank 91, 9 beyond
		{1000, 99, 990, true}, // rank 990, 10 beyond
		{999, 99, 0, false},   // rank ceil(989.01) = 990, 9 beyond
		{40, 75, 30, true},    // rank 30, 10 beyond
		{39, 75, 0, false},    // rank 30, 9 beyond
		{0, 50, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("p%d of 1..%d = %v, %v; want %v, ok=%v", tc.p, tc.n, got, err, tc.want, tc.ok)
		}
	}
	if _, err := percentile(seq(100), 100); err == nil {
		t.Error("p100 accepted")
	}
}

// TestPercentileCountsFailuresAsSlowest checks that a failed request,
// recorded as +Inf, can only push a percentile up.
func TestPercentileCountsFailuresAsSlowest(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	xs[0] = math.Inf(1)
	got, err := percentile(xs, 50)
	if err != nil || got != 11 {
		t.Fatalf("p50 = %v, %v; want 11", got, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of none = %v", got)
	}
}
