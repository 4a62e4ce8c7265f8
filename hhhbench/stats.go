package main

import (
	"fmt"
	"sort"
	"strconv"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as the tail.
const minBeyond = 10

// tailBlock is the number of consecutive samples the tail is taken
// over. A closed loop's sample count grows with its speed, and the
// highest percentile with minBeyond samples beyond it grows with the
// count: over a whole run, a faster change would be judged at a higher
// percentile. Over fixed blocks the percentile is fixed (p90 for 100),
// and the median over the blocks steadies it. The blocks are short so
// that a run holds many: a p90 moves less with one stalled report than
// a p98, and a median over many blocks less than over few.
const tailBlock = 100

// timing summarises one latency population: its median and its tail.
type timing struct {
	N         int
	P50       float64
	Tail      float64
	TailLabel string
}

// summarise computes the median of xs and its tail: the highest
// percentile with at least minBeyond samples beyond it within each
// block of tailBlock consecutive samples, as the median over the
// blocks. Fewer than two blocks' worth of samples form one block.
func summarise(xs []float64) timing {
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	nb := max(1, len(xs)/tailBlock)
	var tails []float64
	for b := 0; b < nb; b++ {
		blk := append([]float64(nil), xs[b*len(xs)/nb:(b+1)*len(xs)/nb]...)
		sort.Float64s(blk)
		var v float64
		v, t.TailLabel = tail(blk)
		tails = append(tails, v)
	}
	t.Tail = medianOf(tails)
	if nb > 1 {
		t.TailLabel = fmt.Sprintf("%s median of %d blocks", t.TailLabel, nb)
	}
	t.P50 = medianOf(xs)
	return t
}

// median returns the middle of sorted xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile of sorted xs that has at least
// minBeyond samples above it — the (minBeyond+1)-th largest sample —
// with its label. With too few samples it falls back to the median.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	if n <= 2*minBeyond {
		return median(xs), "p50"
	}
	return xs[n-1-minBeyond], "p" + strconv.FormatFloat(100*float64(n-minBeyond)/float64(n), 'g', 4, 64)
}

// medianOf returns the median of xs without reordering the caller's
// slice.
func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return median(c)
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
