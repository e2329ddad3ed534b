package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples reported with only 9 beyond it")
	}
	if v, err := percentile(seq(21), 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples reported with only 9 beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
