package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: with fewer, one outlier more or less moves the value.
const minTail = 10

// percentile returns the q-quantile (nearest rank) of samples, which it
// sorts in place. It fails when fewer than minTail samples lie beyond the
// rank, so a p99 needs at least 1000 samples.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g: %d samples, only %d beyond it (need %d)", q*100, n, beyond, minTail)
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	return samples[rank], nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count); it sorts xs in place. It is for small sets of repeated
// measurements, where the percentile support rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio is num/den, or 0 when den is 0 (a counter that did not move).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
