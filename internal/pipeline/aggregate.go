// Cluster aggregation: the receive side of cluster mode. An Aggregator
// accepts sealed wire frames from a fleet of ingest processes (each
// running its own Sharded pipeline with Config.OnSeal set), decodes each
// frame exactly once into the Summary adapter the in-process shards run
// (summaryOf), aligns the decoded summaries — per exact window for the
// windowed engines, latest-frame-per-node for the sliding and continuous
// engines — merges them in node-name order, and publishes a global HHH
// report. Late or missing nodes degrade the report's declared coverage
// (Nodes < Expected, Degraded set), never its correctness: a published
// set is always the true answer over the frames that arrived.
//
// Alignment rules
//
//   - Windowed kinds (per-level, exact, rhhh): frames are grouped into
//     rounds keyed by their window End. A round publishes as soon as
//     every expected node has contributed, or when RoundGrace expires,
//     whichever is first; the grace path publishes with the nodes that
//     arrived and marks the report degraded. Frames for already
//     published rounds are counted late and dropped.
//   - Sliding kinds (sliding, memento) and continuous: the aggregator
//     keeps each node's newest decoded summary. Every ingest advances
//     the cached summaries to the fleet-wide maximum End, copies the
//     first into one accumulator it reuses across publishes, and merges
//     the rest into it; no publish decodes a frame. A silent node's
//     last frame keeps contributing until it ages out of the window
//     naturally — exactly the sliding model's semantics — and the
//     report is marked degraded once any node's End trails the fleet
//     maximum by more than the window span.
//
// Merges that evict (Memento, Space-Saving) depend on their order, so
// the fleet always merges in node-name order: identical input publishes
// identical reports.
//
// Every frame is decoded and validated at Ingest, before it touches an
// engine. A frame that fails to decode, drifts from the kind and
// hierarchy pinned by the first decoded frame, or carries an engine
// geometry the fleet cannot merge (e.g. a node configured with a
// different counter budget) is rejected with a typed error charged to
// its sender, which keeps its previous summary; the rejected frame joins
// no round, so a misconfigured node cannot poison the merge.

package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/telemetry"
	"hiddenhhh/internal/wire"
)

// ErrFrameRejected wraps every Aggregator.Ingest rejection that is the
// sender's fault (undecodable frame, kind or hierarchy drift, merge
// geometry mismatch) so servers can map it to a 4xx response.
var ErrFrameRejected = errors.New("pipeline: frame rejected")

// AggregatorConfig parameterises NewAggregator.
type AggregatorConfig struct {
	// Expected is the ingest fleet size the aggregator waits for before
	// publishing a windowed round, and the denominator for coverage
	// degradation. Required.
	Expected int
	// Phi is the global threshold fraction applied to the merged
	// summary. Required for every kind; continuous frames still
	// threshold at the phi sealed inside them.
	Phi float64
	// RoundGrace bounds how long a windowed round waits for stragglers
	// after its first frame arrives; on expiry the round publishes
	// degraded with the nodes present. Default 2s.
	RoundGrace time.Duration
	// Metrics, when set, registers per-node frame/lag/last-seen series
	// and aggregate merge counters on the registry.
	Metrics *telemetry.Registry
}

func (c *AggregatorConfig) setDefaults() error {
	if c.Expected <= 0 {
		return fmt.Errorf("pipeline: aggregator expects a positive fleet size, got %d", c.Expected)
	}
	if !(c.Phi > 0 && c.Phi <= 1) {
		return fmt.Errorf("pipeline: aggregator phi %v out of (0,1]", c.Phi)
	}
	if c.RoundGrace <= 0 {
		c.RoundGrace = 2 * time.Second
	}
	return nil
}

// AggReport is one published global merge.
type AggReport struct {
	// Set is the merged fleet-wide HHH set.
	Set hhh.Set
	// Start and End delimit the span the report covers (the round's
	// window for windowed kinds, the trailing span ending at the fleet
	// maximum End for sliding kinds).
	Start, End int64
	// Bytes is the merged total mass the threshold was computed from.
	Bytes int64
	// Nodes is how many ingest nodes contributed frames.
	Nodes int
	// Expected is the configured fleet size.
	Expected int
	// Degraded marks a report missing nodes (or lagging ones, for
	// sliding kinds) or built from frames that were themselves sealed
	// degraded on their ingest node.
	Degraded bool
	// Seq numbers publications monotonically from 1.
	Seq int64
}

// AggNodeStats is the per-node view served by Aggregator.Stats.
type AggNodeStats struct {
	// Node is the sender's self-declared name.
	Node string `json:"node"`
	// Frames counts accepted frames from this node.
	Frames int64 `json:"frames"`
	// LastSeq is the highest seal sequence number seen.
	LastSeq int64 `json:"last_seq"`
	// LastEnd is the newest window End covered by this node's frames.
	LastEnd int64 `json:"last_end"`
	// LastSeenUnixNano is the wall-clock receipt time of the newest
	// frame.
	LastSeenUnixNano int64 `json:"last_seen_unix_nano"`
	// LagNs is how far this node's LastEnd trails the fleet maximum.
	LagNs int64 `json:"lag_ns"`
	// Rejected counts frames from this node that failed decode or
	// validation.
	Rejected int64 `json:"rejected"`
}

// AggStats is the aggregator-wide counter snapshot.
type AggStats struct {
	// Kind is the summary kind the fleet ships ("" until the first
	// frame).
	Kind string `json:"kind"`
	// Expected is the configured fleet size.
	Expected int `json:"expected"`
	// Merges counts published reports; DegradedMerges the subset
	// published without full fleet coverage.
	Merges         int64 `json:"merges"`
	DegradedMerges int64 `json:"degraded_merges"`
	// LateFrames counts frames that arrived for an already published
	// round (or behind the sender's own newest sequence) and were
	// dropped.
	LateFrames int64 `json:"late_frames"`
	// Rejected counts frames refused for decode or validation errors.
	Rejected int64 `json:"rejected"`
	// Nodes holds the per-node views, sorted by name.
	Nodes []AggNodeStats `json:"nodes"`
}

// aggNode tracks one sender.
type aggNode struct {
	name     string
	frames   int64
	lastSeq  int64
	lastEnd  int64
	lastSeen int64 // wall-clock unix nanos
	rejected int64
	latest   Summary // newest decoded frame (latest-frame kinds)
	frameCtr *telemetry.Counter
}

// aggRound is one pending windowed round.
type aggRound struct {
	start, end int64
	sums       map[string]Summary // decoded frame per contributing node
	degraded   bool               // any contributing frame sealed degraded
	timer      *time.Timer
}

// Aggregator merges sealed summary frames from many ingest processes
// into a global HHH report. All methods are safe for concurrent use.
type Aggregator struct {
	cfg AggregatorConfig

	mu        sync.Mutex
	kind      wire.Kind   // pinned by the first accepted frame
	hdr       wire.Header // descriptor pinned alongside kind
	spanWidth int64       // window span learned from sealed metadata
	nodes     map[string]*aggNode
	order     []*aggNode          // nodes sorted by name: the merge order
	acc       Summary             // reused latest-frame accumulator, pinning the fleet's geometry
	rounds    map[int64]*aggRound // windowed kinds only
	published int64               // newest published round End
	closed    bool

	pub            atomic.Pointer[AggReport]
	pubSeq         atomic.Int64
	merges         atomic.Int64
	degradedMerges atomic.Int64
	lateFrames     atomic.Int64
	rejected       atomic.Int64

	frameVec *telemetry.CounterVec
	lagVec   *telemetry.GaugeVec
	seenVec  *telemetry.GaugeVec
}

// NewAggregator builds an aggregator for a fleet of cfg.Expected ingest
// nodes. Callers should Close it to release pending round timers.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	a := &Aggregator{
		cfg:    cfg,
		nodes:  make(map[string]*aggNode),
		rounds: make(map[int64]*aggRound),
	}
	a.pub.Store(&AggReport{Set: hhh.NewSet(), Expected: cfg.Expected})
	if r := cfg.Metrics; r != nil {
		a.frameVec = r.CounterVec("hhh_aggregator_frames_total",
			"Sealed frames accepted, by ingest node.", "node")
		a.lagVec = r.GaugeVec("hhh_aggregator_node_lag_seconds",
			"How far each node's newest window End trails the fleet maximum.", "node")
		a.seenVec = r.GaugeVec("hhh_aggregator_node_last_seen_seconds",
			"Wall-clock receipt time of each node's newest frame (unix seconds).", "node")
		r.CounterFunc("hhh_aggregator_merges_total",
			"Global reports published.", a.merges.Load)
		r.CounterFunc("hhh_aggregator_degraded_merges_total",
			"Global reports published without full fleet coverage.", a.degradedMerges.Load)
		r.CounterFunc("hhh_aggregator_late_frames_total",
			"Frames dropped for arriving behind an already published round.", a.lateFrames.Load)
		r.CounterFunc("hhh_aggregator_rejected_frames_total",
			"Frames refused for decode or validation errors.", a.rejected.Load)
	}
	return a, nil
}

// roundAligned reports whether the kind merges per exact window (true)
// or latest-frame-per-node (false).
func roundAligned(k wire.Kind) bool {
	switch k {
	case wire.KindPerLevel, wire.KindExact, wire.KindRHHH:
		return true
	default:
		return false
	}
}

// node returns (creating on first use) the tracker for a sender.
// Caller holds a.mu.
func (a *Aggregator) node(name string) *aggNode {
	n, ok := a.nodes[name]
	if !ok {
		n = &aggNode{name: name}
		if a.frameVec != nil {
			n.frameCtr = a.frameVec.With(name)
			a.lagVec.WithFunc(func() float64 {
				return a.nodeLagSeconds(name)
			}, name)
			a.seenVec.WithFunc(func() float64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				return float64(a.nodes[name].lastSeen) / 1e9
			}, name)
		}
		a.nodes[name] = n
		i, _ := slices.BinarySearchFunc(a.order, name, func(m *aggNode, name string) int {
			return strings.Compare(m.name, name)
		})
		a.order = slices.Insert(a.order, i, n)
	}
	return n
}

// nodeLagSeconds computes the scrape-time lag gauge for one node.
func (a *Aggregator) nodeLagSeconds(name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var maxEnd int64
	for _, n := range a.nodes {
		if n.lastEnd > maxEnd {
			maxEnd = n.lastEnd
		}
	}
	n := a.nodes[name]
	if n == nil || n.lastEnd == 0 || maxEnd <= n.lastEnd {
		return 0
	}
	return float64(maxEnd-n.lastEnd) / 1e9
}

// reject counts and wraps a sender-fault error.
func (a *Aggregator) reject(n *aggNode, format string, args ...any) error {
	a.rejected.Add(1)
	if n != nil {
		n.rejected++
	}
	return fmt.Errorf("%w: %s", ErrFrameRejected, fmt.Sprintf(format, args...))
}

// Ingest accepts one sealed frame from the named node. The frame is
// decoded once, before the aggregator lock is taken, so concurrent
// callers decode in parallel. A frame that fails to decode, drifts from
// the fleet's pinned kind or hierarchy, or cannot merge with the
// fleet's engine geometry is rejected with an error wrapping
// ErrFrameRejected and charged to the node, which keeps its previous
// summary. A nil return means the frame was accepted (it may still have
// been dropped as late, which Stats counts).
func (a *Aggregator) Ingest(nodeName string, s Sealed) error {
	hdr, sum, err := a.decode(s.Frame)

	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.node(nodeName)
	if err != nil {
		return a.reject(n, "bad frame from %s: %v", nodeName, err)
	}
	if a.closed {
		return fmt.Errorf("pipeline: aggregator closed")
	}
	if a.kind == 0 {
		a.kind, a.hdr = hdr.Kind, hdr
	}
	if hdr.Kind != a.kind {
		return a.reject(n, "kind drift: fleet ships %v, %s sent %v", a.kind, nodeName, hdr.Kind)
	}
	if hdr.Family != a.hdr.Family || hdr.Step != a.hdr.Step || hdr.Depth != a.hdr.Depth {
		a.rejected.Add(1)
		n.rejected++
		return fmt.Errorf("%w: %w: fleet hierarchy (%d/%d/%d), %s sent (%d/%d/%d)",
			ErrFrameRejected, wire.ErrHierarchyMismatch,
			a.hdr.Family, a.hdr.Step, a.hdr.Depth,
			nodeName, hdr.Family, hdr.Step, hdr.Depth)
	}
	if s.Seq <= n.lastSeq {
		a.lateFrames.Add(1)
		return nil
	}
	if acc, ok := a.acc.(latestSummary); ok {
		if err := acc.mergeable(sum); err != nil {
			return a.reject(n, "geometry drift from %s: %v", nodeName, err)
		}
	}
	n.frames++
	n.lastSeq = s.Seq
	if s.End > n.lastEnd {
		n.lastEnd = s.End
	}
	n.lastSeen = time.Now().UnixNano()
	if n.frameCtr != nil {
		n.frameCtr.Inc()
	}
	if w := s.End - s.Start; w > 0 {
		a.spanWidth = w
	}

	if roundAligned(a.kind) {
		return a.ingestRoundLocked(nodeName, s, sum)
	}
	prev := n.latest
	n.latest = sum
	if err := a.publishLatestLocked(s.Degraded); err != nil {
		n.latest = prev
		return a.reject(n, "merge from %s: %v", nodeName, err)
	}
	return nil
}

// decode inspects a frame and decodes it into its Summary adapter. It
// touches no aggregator state, so Ingest runs it before taking a.mu.
func (a *Aggregator) decode(frame []byte) (wire.Header, Summary, error) {
	hdr, err := wire.Inspect(frame)
	if err != nil {
		return hdr, nil, err
	}
	v, err := wire.Decode(frame)
	if err != nil {
		return hdr, nil, err
	}
	sum, err := summaryOf(v, a.cfg.Phi)
	return hdr, sum, err
}

// ingestRoundLocked files a decoded frame into its window round,
// publishing the round when the fleet is complete. Caller holds a.mu.
func (a *Aggregator) ingestRoundLocked(nodeName string, s Sealed, sum Summary) error {
	if s.End <= a.published {
		a.lateFrames.Add(1)
		return nil
	}
	r, ok := a.rounds[s.End]
	if !ok {
		r = &aggRound{start: s.Start, end: s.End, sums: make(map[string]Summary)}
		r.timer = time.AfterFunc(a.cfg.RoundGrace, func() { a.expireRound(s.End) })
		a.rounds[s.End] = r
	}
	r.sums[nodeName] = sum
	r.degraded = r.degraded || s.Degraded
	if len(r.sums) >= a.cfg.Expected {
		return a.publishRoundsThroughLocked(r.end)
	}
	return nil
}

// expireRound is the RoundGrace timer body: publish the round with
// whoever arrived.
func (a *Aggregator) expireRound(end int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || a.rounds[end] == nil || end <= a.published {
		return
	}
	_ = a.publishRoundsThroughLocked(end)
}

// publishRoundsThroughLocked publishes every pending round with End ≤
// end in window order (older rounds flush degraded ahead of a completed
// newer one, keeping publications monotone). Caller holds a.mu.
func (a *Aggregator) publishRoundsThroughLocked(end int64) error {
	var ends []int64
	for e := range a.rounds {
		if e <= end {
			ends = append(ends, e)
		}
	}
	for i := 0; i < len(ends); i++ { // insertion sort; rounds are few
		for j := i; j > 0 && ends[j] < ends[j-1]; j-- {
			ends[j], ends[j-1] = ends[j-1], ends[j]
		}
	}
	var firstErr error
	for _, e := range ends {
		r := a.rounds[e]
		delete(a.rounds, e)
		r.timer.Stop()
		a.published = e
		if err := a.publishRoundLocked(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// publishRoundLocked merges one round's summaries in node-name order
// and publishes the global report. The round is discarded afterwards,
// so the first summary serves as the accumulator. Caller holds a.mu.
func (a *Aggregator) publishRoundLocked(r *aggRound) error {
	sums := make([]Summary, 0, len(r.sums))
	for _, n := range a.order {
		if s := r.sums[n.name]; s != nil {
			sums = append(sums, s)
		}
	}
	set, total, err := mergeInto(sums[0], sums[1:], r.end)
	if err != nil {
		a.rejected.Add(1)
		return fmt.Errorf("%w: round %d: %v", ErrFrameRejected, r.end, err)
	}
	a.store(&AggReport{
		Set:      set,
		Start:    r.start,
		End:      r.end,
		Bytes:    total,
		Nodes:    len(sums),
		Expected: a.cfg.Expected,
		Degraded: r.degraded || len(sums) < a.cfg.Expected,
	})
	return nil
}

// publishLatestLocked re-merges every node's cached summary (latest-
// frame kinds) in node-name order: each is advanced to the fleet-wide
// maximum End, the first is copied into the reused accumulator and the
// rest merge into it. Caller holds a.mu.
func (a *Aggregator) publishLatestLocked(sealDegraded bool) error {
	sums := make([]Summary, 0, len(a.order))
	var maxEnd int64
	for _, n := range a.order {
		if n.latest != nil {
			sums = append(sums, n.latest)
			maxEnd = max(maxEnd, n.lastEnd)
		}
	}
	sums[0].Advance(maxEnd)
	a.acc = sums[0].(latestSummary).copyTo(a.acc)
	set, total, err := mergeInto(a.acc, sums[1:], maxEnd)
	if err != nil {
		return err
	}
	degraded := sealDegraded || len(sums) < a.cfg.Expected
	if width := a.spanWidth; width > 0 {
		for _, n := range a.order {
			if n.latest != nil && maxEnd-n.lastEnd > width {
				degraded = true // node's last frame has aged past the span
			}
		}
	}
	a.store(&AggReport{
		Set:      set,
		Start:    a.latestStart(maxEnd),
		End:      maxEnd,
		Bytes:    total,
		Nodes:    len(sums),
		Expected: a.cfg.Expected,
		Degraded: degraded,
	})
	return nil
}

// latestStart derives the published span start for sliding kinds: the
// fleet span ends at the maximum End and is window-sized, with the
// width learned from sealed metadata (nodes share one config).
func (a *Aggregator) latestStart(maxEnd int64) int64 {
	if a.spanWidth <= 0 {
		return maxEnd
	}
	return maxEnd - a.spanWidth
}

// store publishes a report with the next sequence number.
func (a *Aggregator) store(r *AggReport) {
	r.Seq = a.pubSeq.Add(1)
	a.pub.Store(r)
	a.merges.Add(1)
	if r.Degraded {
		a.degradedMerges.Add(1)
	}
}

// mergeInto advances each of sums to at and merges it into acc, which
// is already at at, then queries acc at at. Ingest rejects the geometry
// drift on which engines' Merge panics, so a recovered panic here is a
// defect, reported as an error to keep the aggregator alive.
func mergeInto(acc Summary, sums []Summary, at int64) (set hhh.Set, total int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			set, total = nil, 0
			err = fmt.Errorf("merge panic: %v", r)
		}
	}()
	for _, s := range sums {
		s.Advance(at)
		acc.Merge(s)
	}
	set, total = acc.Query(at)
	return set, total, nil
}

// Report returns the newest published global report. Never nil.
func (a *Aggregator) Report() *AggReport { return a.pub.Load() }

// Stats snapshots the aggregator counters and per-node views.
func (a *Aggregator) Stats() AggStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AggStats{
		Expected:       a.cfg.Expected,
		Merges:         a.merges.Load(),
		DegradedMerges: a.degradedMerges.Load(),
		LateFrames:     a.lateFrames.Load(),
		Rejected:       a.rejected.Load(),
	}
	if a.kind != 0 {
		st.Kind = a.kind.String()
	}
	var maxEnd int64
	for _, n := range a.order {
		maxEnd = max(maxEnd, n.lastEnd)
	}
	for _, n := range a.order {
		lag := int64(0)
		if n.lastEnd > 0 && maxEnd > n.lastEnd {
			lag = maxEnd - n.lastEnd
		}
		st.Nodes = append(st.Nodes, AggNodeStats{
			Node:             n.name,
			Frames:           n.frames,
			LastSeq:          n.lastSeq,
			LastEnd:          n.lastEnd,
			LastSeenUnixNano: n.lastSeen,
			LagNs:            lag,
			Rejected:         n.rejected,
		})
	}
	return st
}

// Flush publishes every pending windowed round immediately (degraded if
// incomplete). A no-op for sliding kinds, whose reports are always
// current.
func (a *Aggregator) Flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || len(a.rounds) == 0 {
		return
	}
	var maxEnd int64
	for e := range a.rounds {
		if e > maxEnd {
			maxEnd = e
		}
	}
	_ = a.publishRoundsThroughLocked(maxEnd)
}

// Close stops pending round timers. Further Ingest calls fail.
func (a *Aggregator) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	for _, r := range a.rounds {
		r.timer.Stop()
	}
}
