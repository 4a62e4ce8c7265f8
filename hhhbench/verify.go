package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	hhh "hiddenhhh"
	"hiddenhhh/internal/oracle"
)

// model is the window model a report is checked under.
type model int

const (
	windowed model = iota // the disjoint window [at-window, at)
	sliding               // the frame-aligned span ending at at, inclusive
	decayed               // exponential decay with tau = window, at at
)

// report is one published HHH report, kept for the oracle pass that
// runs after the timed region. Its items are copied out of the set: a
// slice holds them in a fraction of a map's memory, which keeps the
// benchmark's own footprint small next to the program's even though
// faster programs publish more reports.
type report struct {
	at      int64 // trace time: window end (windowed) or query time
	items   []hhh.Item
	mass    int64 // the detector's threshold denominator; -1 if it exposes none
	offered int64 // decayed: packets of the replayed stream offered before the query
}

// gate checks one stream of reports against the exact oracle of
// internal/oracle, within the engine's bound.
type gate struct {
	name    string
	model   model
	bounds  oracle.Bounds
	warmup  int64 // decayed: reports before the first packet plus one tau are not bound-checked
	reports []report
}

// add records a report of set at trace time at; mass is -1 where the
// detector exposes none, offered is the decayed model's stream position.
func (g *gate) add(at int64, set hhh.Set, mass, offered int64) {
	g.reports = append(g.reports, report{at: at, items: set.Items(), mass: mass, offered: offered})
}

// decayHistory is how much history the decayed oracle replays before a
// query: older packets weigh less than exp(-16) ~ 1e-7 of their size.
const decayHistory = 16 * window

// verdict is a gate's oracle pass: bound checks over every report, and
// quality over the reports of the first lap (a fixed set per seed).
type verdict struct {
	reports   int
	violation string // the first violation, empty if none

	recall, precision float64 // means over the first lap's checked reports
	got               hhh.Set // union of the first lap's reported prefixes
	sliding           hhh.Set // union of the exact sliding sets at the first lap's report times
}

// aggregate is the exact reference behind one report.
type aggregate struct {
	lo, hi    int64 // the span, for messages
	mass      float64
	threshold float64
	count     func(level int, key uint64) float64
	uncovered func(got hhh.Set, need func(maximal int) float64) []oracle.Miss
	exact     func() hhh.Set
	set       hhh.Set // exact, computed on first use
}

// truth returns the exact HHH set of the aggregate's window model.
func (a *aggregate) truth() hhh.Set {
	if a.set == nil {
		a.set = a.exact()
	}
	return a.set
}

// verify runs the oracle pass over g's reports.
func (g *gate) verify(l laps) verdict {
	h := hhh.NewHierarchy(hhh.Byte)
	v := verdict{reports: len(g.reports), got: hhh.Set{}, sliding: hhh.Set{}}
	var two *oracle.Oracle
	var buf []hhh.Packet
	if g.model != decayed {
		two = oracle.FromTrace(h, l.twoLaps())
	}
	// Reports at the same folded time share one exact aggregate, and a
	// report identical to one already checked there shares its verdict.
	key := func(i int) int64 {
		r := g.reports[i]
		switch g.model {
		case windowed:
			return l.fold(r.at-1) + 1 // the window [at-window, at) lies in the lap of at-1
		case sliding:
			return l.fold(r.at)
		}
		return int64(i)
	}
	order := make([]int, len(g.reports))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })

	var sumR, sumP float64
	var nq int
	var agg *aggregate
	var checked []hhh.Set
	for n, i := range order {
		r := g.reports[i]
		set := hhh.Set{}
		for _, it := range r.items {
			set.Add(it)
		}
		if n == 0 || key(i) != key(order[n-1]) {
			if g.model == decayed {
				agg = decayedAggregate(g.decayedOracle(l, r, &buf), r.at)
			} else {
				agg = countAggregate(two, g.model, key(i))
			}
			checked = checked[:0]
		}
		// A window ending at the lap boundary is the first lap's last.
		firstLap := r.at < l.period || g.model == windowed && r.at == l.period
		if firstLap {
			v.got.UnionInPlace(set)
			switch g.model {
			case sliding:
				v.sliding.UnionInPlace(agg.truth())
			case decayed:
				s, _ := oracle.FromTrace(h, l.base[:r.offered]).SlidingSet(window, frames, r.at, phi)
				v.sliding.UnionInPlace(s)
			}
		}
		if r.at < g.warmup {
			continue
		}
		if firstLap {
			p, rc := score(agg.truth(), set)
			sumP, sumR, nq = sumP+p, sumR+rc, nq+1
		}
		if v.violation != "" || seen(checked, set) {
			continue
		}
		if msg := g.check(h, agg, r, set); msg != "" {
			v.violation = fmt.Sprintf("%s: report at t=%.3fs over [%.3fs, %.3fs]: %s",
				g.name, sec(r.at), sec(agg.lo), sec(agg.hi), msg)
		}
		checked = append(checked, set)
	}
	if nq > 0 {
		v.recall, v.precision = sumR/float64(nq), sumP/float64(nq)
	}
	return v
}

// decayedOracle builds an oracle over the packets offered before r,
// back to decayHistory before the query.
func (g *gate) decayedOracle(l laps, r report, buf *[]hhh.Packet) *oracle.Oracle {
	lo := int64(sort.Search(int(r.offered), func(k int) bool {
		return l.ts(int64(k)) >= r.at-int64(decayHistory)
	}))
	if int64(cap(*buf)) < r.offered-lo {
		*buf = make([]hhh.Packet, r.offered-lo)
	}
	hist := (*buf)[:r.offered-lo]
	l.fill(hist, lo)
	return oracle.FromTrace(hhh.NewHierarchy(hhh.Byte), hist)
}

// countAggregate is the exact byte aggregate of a report at folded time
// at: the window [at-window, at), or the sliding span ending at at
// inclusive.
func countAggregate(o *oracle.Oracle, m model, at int64) *aggregate {
	lo, hi := at-int64(window), at
	exact := func() hhh.Set { s, _ := o.WindowSet(lo, hi, phi); return s }
	if m == sliding {
		lo, hi = oracle.SlidingSpan(window, frames, at), at+1
		exact = func() hhh.Set { s, _ := o.SlidingSet(window, frames, at, phi); return s }
	}
	levels, total := o.LevelCounts(lo, hi)
	h := o.Hierarchy()
	return &aggregate{
		lo: lo, hi: hi, mass: float64(total),
		threshold: float64(hhh.Threshold(total, phi)),
		count:     func(l int, k uint64) float64 { return float64(levels[l][k]) },
		uncovered: func(got hhh.Set, need func(int) float64) []oracle.Miss {
			return oracle.UncoveredCounts(h, levels, got, func(m int) int64 { return int64(need(m)) })
		},
		exact: exact,
	}
}

// decayedAggregate is the exact decayed aggregate at time at.
func decayedAggregate(o *oracle.Oracle, at int64) *aggregate {
	levels, total := o.DecayedLevelCounts(at, window)
	h := o.Hierarchy()
	return &aggregate{
		lo: at - int64(decayHistory), hi: at, mass: total,
		threshold: phi * total,
		count:     func(l int, k uint64) float64 { return levels[l][k] },
		uncovered: func(got hhh.Set, need func(int) float64) []oracle.Miss {
			return oracle.UncoveredDecayed(h, levels, got, need)
		},
		exact: func() hhh.Set { s, _ := o.DecayedSet(at, window, phi); return s },
	}
}

// check applies the oracle harness's bound checks to one report:
// accounting (the detector's mass equals the exact one), accuracy (every
// reported count within the allowance of exact) and coverage (every
// prefix whose exact conditioned volume, given the report, clears the
// widened threshold is reported). It returns the first violation.
func (g *gate) check(h hhh.Hierarchy, agg *aggregate, r report, set hhh.Set) string {
	b := g.bounds
	allow := (b.Epsilon+b.Slack)*agg.mass + b.AbsSlack
	if r.mass >= 0 {
		tol := 0.0
		if g.model == decayed {
			tol = 1e-6*agg.mass + 1
		}
		if d := float64(r.mass) - agg.mass; math.Abs(d) > tol {
			return fmt.Sprintf("mass %d, exact %.0f (tolerance %.0f)", r.mass, agg.mass, tol)
		}
	}
	under := 1.0 // Space-Saving never underestimates, integer truncation aside
	if b.AllowUnder {
		under = allow + 1
	}
	for _, it := range sortedItems(set) {
		p := it.Prefix
		if !h.OnLattice(p) {
			continue
		}
		exact := agg.count(h.Level(p.Bits), h.KeyOfPrefix(p))
		switch err := float64(it.Count) - exact; {
		case err > allow+1:
			return fmt.Sprintf("%v estimated %d, exact %.0f: over by %.0f > bound %.0f", p, it.Count, exact, err, allow+1)
		case -err > under:
			return fmt.Sprintf("%v estimated %d, exact %.0f: under by %.0f > bound %.0f", p, it.Count, exact, -err, under)
		}
	}
	misses := agg.uncovered(set, func(maximal int) float64 {
		return agg.threshold + float64(maximal+1)*allow + 2
	})
	if len(misses) > 0 {
		sort.Slice(misses, func(i, j int) bool { return misses[i].Prefix.String() < misses[j].Prefix.String() })
		m := misses[0]
		return fmt.Sprintf("%v missing: exact conditioned volume %.0f >= bound %.0f (threshold %.0f, %d reported descendants)",
			m.Prefix, m.Cond, m.Need, agg.threshold, m.Maximal)
	}
	return ""
}

// score returns a report's precision and recall against the exact set
// (1 for empty sides, as the oracle harness scores them).
func score(truth, got hhh.Set) (precision, recall float64) {
	inter := float64(truth.Intersect(got).Len())
	precision, recall = 1, 1
	if got.Len() > 0 {
		precision = inter / float64(got.Len())
	}
	if truth.Len() > 0 {
		recall = inter / float64(truth.Len())
	}
	return precision, recall
}

// seen reports whether set equals, prefixes and counts, a set already
// checked against the same aggregate.
func seen(checked []hhh.Set, set hhh.Set) bool {
	for _, c := range checked {
		if len(c) != len(set) {
			continue
		}
		same := true
		for p, it := range set {
			if c[p] != it {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// sortedItems orders a set's items by prefix, so the first violation
// reported is the same on every run.
func sortedItems(s hhh.Set) []hhh.Item {
	items := s.Items()
	sort.Slice(items, func(i, j int) bool { return items[i].Prefix.String() < items[j].Prefix.String() })
	return items
}

// windowedTruth is the union of the exact disjoint-window sets over the
// first lap: what a windowed view can ever see.
func windowedTruth(l laps) hhh.Set {
	o := oracle.FromTrace(hhh.NewHierarchy(hhh.Byte), l.base)
	u := hhh.Set{}
	for lo := int64(0); lo < l.period; lo += int64(window) {
		s, _ := o.WindowSet(lo, lo+int64(window), phi)
		u.UnionInPlace(s)
	}
	return u
}

// hiddenRecall is the share of windowed-hidden HHHs — in the exact
// sliding view at the report times but in no exact disjoint window —
// that the reports revealed.
func hiddenRecall(v verdict, l laps) (recall float64, hidden int) {
	h := v.sliding.Diff(windowedTruth(l))
	if h.Len() == 0 {
		return 1, 0
	}
	return float64(v.got.Intersect(h).Len()) / float64(h.Len()), h.Len()
}

func sec(ns int64) float64 { return float64(ns) / float64(time.Second) }
