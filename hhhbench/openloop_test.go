package main

import (
	"math"
	"testing"
	"time"
)

// manualClock advances only when a call runs (advance) or the generator
// sleeps past the current time.
type manualClock struct{ t time.Duration }

func (c *manualClock) now() time.Duration { return c.t }

func (c *manualClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func (c *manualClock) advance(d time.Duration) { c.t += d }

func TestOpenLoopStallMakesLaterCallsLate(t *testing.T) {
	clk := &manualClock{}
	l := &openLoop{clk: clk}
	ms := time.Millisecond
	// Calls due every 1 ms; the first one stalls for 2.5 ms, the rest
	// take 0.1 ms each.
	durations := []time.Duration{2500 * time.Microsecond, ms / 10, ms / 10, ms / 10, ms / 10}
	var latency []float64
	for k, d := range durations {
		due := time.Duration(k) * ms
		l.begin(due)
		clk.advance(d)
		latency = append(latency, l.since(due))
	}
	wantLate := []float64{0, 1.5, 0.6, 0, 0}
	wantLatency := []float64{2.5, 1.6, 0.7, 0.1, 0.1}
	for k := range durations {
		if math.Abs(l.late[k]-wantLate[k]) > 1e-9 {
			t.Errorf("call %d: late %.3f ms, want %.3f", k, l.late[k], wantLate[k])
		}
		if math.Abs(latency[k]-wantLatency[k]) > 1e-9 {
			t.Errorf("call %d: latency %.3f ms, want %.3f", k, latency[k], wantLatency[k])
		}
	}
}

func TestNextOfMergesInDueOrder(t *testing.T) {
	batches := &periodic{rate: 4} // due 0, 250, 500, 750 ms
	queries := &periodic{rate: 2} // due 0, 500 ms
	var got []int
	var dues []time.Duration
	for i := 0; i < 6; i++ {
		which, due := nextOf(batches, queries)
		got = append(got, which)
		dues = append(dues, due)
	}
	want := []int{0, 1, 0, 0, 1, 0}
	wantDue := []time.Duration{0, 0, 250, 500, 500, 750}
	for i := range want {
		if got[i] != want[i] || dues[i] != wantDue[i]*time.Millisecond {
			t.Fatalf("event %d: stream %d due %v, want stream %d due %v",
				i, got[i], dues[i], want[i], wantDue[i]*time.Millisecond)
		}
	}
}
