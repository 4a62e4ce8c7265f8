// The inline executor and the disjoint-window clock both executors
// share. Sharded spreads one stream over N shard summaries behind rings
// and barriers; Inline runs the same Summary — the one newSummary(cfg, 0)
// builds, so a 1-shard Sharded and an Inline reproduce each other — on
// the caller's goroutine with no rings, no staging and no goroutines.
// Every streaming window model in the module runs through one of the two.

package pipeline

import (
	"fmt"
	"math"
	"sort"

	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/trace"
)

// tumbler is the disjoint-window model, written once for both executors.
// It aligns the first window on the first packet, splits every
// time-ordered run into chunks that never straddle a boundary, and
// closes windows in order. A window that absorbed no family-matching
// packet takes the empty-window fast path — its summary holds nothing,
// so there is nothing to query: the empty set is published and handed to
// OnWindow directly, which keeps idle gaps of many windows cheap.
type tumbler struct {
	width    int64
	started  bool
	curEnd   int64
	hasData  bool // the open window absorbed at least one packed key
	onWindow func(start, end int64, set hhh.Set)
}

// windowExec is the executor side of a tumbler.
type windowExec interface {
	// ingest absorbs a run lying inside the open window and reports
	// whether any packet passed the family filter.
	ingest(pkts []trace.Packet) bool
	// closeWindow queries, publishes and resets a window that absorbed
	// data; the executor hands its set to OnWindow.
	closeWindow(start, end int64)
	// publishEmpty publishes an empty window's report.
	publishEmpty(start, end int64, set hhh.Set)
}

// enter readies the window model for a packet at ts: it aligns the first
// window on it and closes every window ending at or before ts.
func (t *tumbler) enter(ts int64, x windowExec) {
	if !t.started {
		t.started = true
		t.curEnd = (ts/t.width + 1) * t.width
	}
	t.advance(ts, x)
}

// feed drives a time-ordered run through the window model.
func (t *tumbler) feed(pkts []trace.Packet, x windowExec) {
	for len(pkts) > 0 {
		t.enter(pkts[0].Ts, x)
		n := sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts >= t.curEnd })
		if x.ingest(pkts[:n]) {
			t.hasData = true
		}
		pkts = pkts[n:]
	}
}

// advance closes every window ending at or before now.
func (t *tumbler) advance(now int64, x windowExec) {
	for t.started && now >= t.curEnd {
		start, end := t.curEnd-t.width, t.curEnd
		t.curEnd += t.width
		if t.hasData {
			t.hasData = false
			x.closeWindow(start, end)
			continue
		}
		set := hhh.NewSet()
		x.publishEmpty(start, end, set)
		if t.onWindow != nil {
			t.onWindow(start, end, set)
		}
	}
}

// coveredSpan is the Accounting span of report rep at now, shared by
// both executors: the last closed window [lo, hi) in windowed mode —
// (0, 0) before any window closed — the frame-aligned covered span
// [lo, now] in sliding mode, and (math.MinInt64, now] in continuous
// mode, whose decayed aggregate has no sharp lower edge.
func (c *Config) coveredSpan(rep *WindowReport, closed bool, now int64) (lo, hi int64) {
	switch c.Mode {
	case ModeSliding:
		return c.slidingConfig().CoveredSince(now), now
	case ModeContinuous:
		return math.MinInt64, now
	default:
		if !closed {
			return 0, 0
		}
		return rep.End - int64(c.Window), rep.End
	}
}

// Inline is the zero-goroutine executor: one Summary fed and queried on
// the caller's goroutine. Each Observe/ObserveBatch call is packed once
// into a reusable KeyBatch (by trace.Packer, the rule Sharded packs by)
// and applied before it returns. In windowed mode the shared tumbler closes windows as
// packets or Snapshot cross their ends; in sliding and continuous mode
// Snapshot queries the live summary at now. Inline is not safe for
// concurrent use.
//
// It takes every Config field of its mode except the sharded-only ones
// (Shards, Batch, RingDepth, Overload, ShedWait, BarrierTimeout, Chaos),
// which it ignores, and OnSeal and Metrics, which it rejects. It
// additionally accepts the continuous OnEnter/OnExit callbacks.
type Inline struct {
	cfg  Config
	sum  Summary
	pack trace.Packer
	kb   trace.KeyBatch
	win  tumbler
	last WindowReport // the report Snapshot returns and Accounting describes
	// closed records that a window has been published (windowed mode);
	// peak is the largest summary footprint any closed window reached.
	closed bool
	peak   int
}

// NewInline builds an inline executor for cfg.
func NewInline(cfg Config) (*Inline, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.OnSeal != nil || cfg.Metrics != nil {
		return nil, fmt.Errorf("pipeline: OnSeal and Metrics require the sharded executor")
	}
	sum, err := newSummary(&cfg, 0)
	if err != nil {
		return nil, err
	}
	return &Inline{
		cfg:  cfg,
		sum:  sum,
		pack: trace.NewPacker(cfg.Hierarchy),
		win:  tumbler{width: int64(cfg.Window), onWindow: cfg.OnWindow},
		last: WindowReport{Set: hhh.NewSet(), Shards: 1},
	}, nil
}

// Observe processes one packet. It packs the packet by the same rule as
// ObserveBatch, directly: a one-packet run through AppendPackets costs
// tens of nanoseconds more per packet.
func (d *Inline) Observe(p *trace.Packet) {
	if d.cfg.Mode == ModeWindowed {
		d.win.enter(p.Ts, d)
	}
	key, ok := d.pack.Key(p.Src)
	if !ok {
		return
	}
	d.kb.Reset()
	d.kb.Append(key, p.Size, p.Ts)
	d.sum.UpdateKeys(&d.kb)
	d.win.hasData = true
}

// ObserveBatch processes a run of packets in time order.
func (d *Inline) ObserveBatch(pkts []trace.Packet) {
	if d.cfg.Mode == ModeWindowed {
		d.win.feed(pkts, d)
		return
	}
	d.ingest(pkts)
}

func (d *Inline) ingest(pkts []trace.Packet) bool {
	d.kb.Reset()
	if d.kb.AppendPackets(d.pack, pkts) == 0 {
		return false
	}
	d.sum.UpdateKeys(&d.kb)
	return true
}

func (d *Inline) closeWindow(start, end int64) {
	set, total := d.sum.Query(end)
	d.peak = max(d.peak, d.sum.SizeBytes())
	d.sum.Reset()
	d.last, d.closed = WindowReport{Set: set, End: end, Bytes: total, Shards: 1}, true
	if d.cfg.OnWindow != nil {
		d.cfg.OnWindow(start, end, set)
	}
}

func (d *Inline) publishEmpty(_, end int64, set hhh.Set) {
	d.last, d.closed = WindowReport{Set: set, End: end, Shards: 1}, true
}

// Snapshot returns the report at now (>= the last observed timestamp):
// in windowed mode the most recently completed window's set, after
// closing every window that ends at or before now; otherwise the live
// summary's set at now.
func (d *Inline) Snapshot(now int64) hhh.Set {
	if d.cfg.Mode == ModeWindowed {
		d.win.advance(now, d)
		return d.last.Set
	}
	set, total := d.sum.Query(now)
	d.last = WindowReport{Set: set, End: now, Bytes: total, Shards: 1}
	return set
}

// ReportMass returns the threshold denominator of Snapshot(now). Call it
// after Snapshot(now), as for Sharded; windowed mode additionally closes
// the windows ending by now itself.
func (d *Inline) ReportMass(now int64) int64 {
	if d.cfg.Mode == ModeWindowed {
		d.win.advance(now, d)
	}
	return d.last.Bytes
}

// CoveredSpan returns the time span Snapshot(now) aggregates (see
// Config.coveredSpan), with ReportMass's calling convention.
func (d *Inline) CoveredSpan(now int64) (lo, hi int64) {
	if d.cfg.Mode == ModeWindowed {
		d.win.advance(now, d)
	}
	return d.cfg.coveredSpan(&d.last, d.closed, now)
}

// SizeBytes reports the summary footprint. In windowed mode it is the
// peak across windows, since the summary is reset at every boundary.
func (d *Inline) SizeBytes() int {
	return max(d.peak, d.sum.SizeBytes())
}
