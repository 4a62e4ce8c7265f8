package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		label string
		value float64
	}{
		{n: 500, label: "p98", value: 490},
		{n: 1000, label: "p99", value: 990},
		{n: 10000, label: "p99.9", value: 9990},
		{n: 161, label: "p93.79", value: 151},
		{n: 20, label: "p50", value: 10.5}, // too few samples: median
	}
	for _, c := range cases {
		xs := seq(c.n)
		v, label := tail(xs)
		if label != c.label || v != c.value {
			t.Errorf("n=%d: got %s=%v, want %s=%v", c.n, label, v, c.label, c.value)
		}
		if c.n > 2*minBeyond {
			above := 0
			for _, x := range xs {
				if x > v {
					above++
				}
			}
			if above != minBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, above, minBeyond)
			}
		}
	}
}

func TestSummariseMedian(t *testing.T) {
	got := summarise([]float64{5, 1, 3, 2, 4, 6})
	if got.N != 6 || got.P50 != 3.5 {
		t.Fatalf("summarise = %+v, want n=6 p50=3.5", got)
	}
	if got := summarise(nil); got.N != 0 || got.P50 != 0 {
		t.Fatalf("summarise(nil) = %+v", got)
	}
}

func TestSummariseTailOverBlocks(t *testing.T) {
	// Two blocks of 100: the first ranges 1..100, the second 1001..1100.
	xs := append(seq(100), seq(100)...)
	for i := 100; i < 200; i++ {
		xs[i] += 1000
	}
	got := summarise(xs)
	// p90 of each block is 90 and 1090; their median is 590.
	if got.Tail != 590 || got.TailLabel != "p90 median of 2 blocks" {
		t.Fatalf("tail = %v (%s), want 590 (p90 median of 2 blocks)", got.Tail, got.TailLabel)
	}
	// 199 samples are one block.
	if got := summarise(seq(199)); got.Tail != 189 || got.TailLabel != "p94.97" {
		t.Fatalf("tail = %v (%s), want 189 (p94.97)", got.Tail, got.TailLabel)
	}
}
