package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanID indexes a recorded span; noSpan marks a root span's parent.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer: its name, the span that caused
// it, the report it contributes to (spans of one report share the id;
// -1 for none), and its start and end in ns since the tracer started.
type span struct {
	name       string
	parent     spanID
	report     int64
	start, end int64
}

// tracer records spans in memory for the traced run; they are written
// out once the run ends. A nil *tracer records nothing, which is how the
// untraced runs that give the end-to-end metrics skip it.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent spanID, report int64) spanID {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, span{name: name, parent: parent, report: report, start: int64(time.Since(t.t0))})
	return spanID(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id spanID) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
}

// interval is a half-open time range in ns.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, counting overlaps
// once. It reorders ivs.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := interval{lo: -1, hi: -1}
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover (overlapping children counted once,
// children clipped to the parent).
func selfTimes(spans []span) []int64 {
	kids := make(map[spanID][]interval)
	for _, s := range spans {
		if s.parent != noSpan {
			p := spans[s.parent]
			iv := interval{lo: max(s.start, p.start), hi: min(s.end, p.end)}
			kids[s.parent] = append(kids[s.parent], iv)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - unionLen(kids[spanID(i)])
	}
	return self
}

// ledger is the per-layer view of a traced run.
type ledger struct {
	self    map[string]int64     // summed self time per span name, ns
	durs    map[string][]float64 // per span name, each span's duration in ms
	covered int64                // wall time covered by root spans, ns
}

// ledger folds the recorded spans into per-name self times and
// durations, and the wall time the root spans cover.
func (t *tracer) ledger() ledger {
	lg := ledger{self: map[string]int64{}, durs: map[string][]float64{}}
	var roots []interval
	for i, d := range selfTimes(t.spans) {
		s := t.spans[i]
		lg.self[s.name] += d
		lg.durs[s.name] = append(lg.durs[s.name], ms(time.Duration(s.end-s.start)))
		if s.parent == noSpan {
			roots = append(roots, interval{lo: s.start, hi: s.end})
		}
	}
	lg.covered = unionLen(roots)
	return lg
}

// writeFile stores the spans as tab-separated rows under a header line
// carrying the host fingerprint.
func (t *tracer) writeFile(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# id\tparent\treport\tname\tstart_ns\tend_ns\tself_ns\n", header)
	for i, d := range selfTimes(t.spans) {
		s := t.spans[i]
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.report, s.name, s.start, s.end, d)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
