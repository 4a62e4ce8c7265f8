package main

import "time"

// clock is the time source of the open-loop generator: elapsed time since
// the run started and a sleep until a given elapsed time. Tests replace
// it with a manual clock to simulate stalls.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock is the real clock, anchored at the run's start.
type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - time.Since(c.start); d > 0 {
		time.Sleep(d)
	}
}

// periodic is a fixed-rate stream of due times: call k is due at
// k * 1e9 / rate nanoseconds after the start.
type periodic struct {
	rate float64 // calls per second
	k    int64   // index of the next call
}

func (p *periodic) due() time.Duration {
	return time.Duration(float64(p.k) * 1e9 / p.rate)
}

// openLoop issues calls on a fixed schedule regardless of how long
// earlier calls took: a call that overruns delays the calls behind it,
// and the delay shows as lateness, never as a lower offered rate.
type openLoop struct {
	clk  clock
	late []float64 // per call: actual start minus due time, ms
}

// begin waits until due and returns the call's actual start time. A
// call whose predecessor overran starts immediately, late.
func (l *openLoop) begin(due time.Duration) time.Duration {
	l.clk.sleepUntil(due)
	start := l.clk.now()
	l.late = append(l.late, ms(max(0, start-due)))
	return start
}

// since returns the time from due until now in ms: the latency of a
// call timed from when it was due, stalls before it included.
func (l *openLoop) since(due time.Duration) float64 {
	return ms(l.clk.now() - due)
}

// nextOf picks the earlier of two periodic streams (a on ties) and
// advances it, returning which stream fired (0 for a, 1 for b) and its
// due time. Both streams advance in due-time order, so a run issues the
// same sequence of calls whatever their durations.
func nextOf(a, b *periodic) (int, time.Duration) {
	da, db := a.due(), b.due()
	if da <= db {
		a.k++
		return 0, da
	}
	b.k++
	return 1, db
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
