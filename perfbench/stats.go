package main

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

var errSmallSample = errors.New("sample too small for the percentile")

// percentile returns the nearest-rank pct-th percentile of xs (pct in
// 1..100). It refuses, with errSmallSample, a sample that leaves fewer
// than minBeyond values beyond the percentile, so a reported tail always
// rests on at least ten observations.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	if n == 0 || pct < 1 || pct > 100 {
		return 0, fmt.Errorf("percentile p%d of %d samples: %w", pct, n, errSmallSample)
	}
	rank := (pct*n + 99) / 100 // ceil(pct·n/100), exact in integers
	if pct > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples leaves %d beyond it, want >= %d: %w",
			pct, n, n-rank, minBeyond, errSmallSample)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// minSamples is the smallest sample percentile accepts for pct:
// ceil(10·100 / (100−pct)).
func minSamples(pct int) int {
	if pct <= 50 {
		return 1
	}
	return (minBeyond*100 + 100 - pct - 1) / (100 - pct)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
