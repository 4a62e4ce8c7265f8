// Package continuous implements the windowless hierarchical-heavy-hitter
// detector the paper's Section 3 calls for: continuous-time detection built
// on time-decaying Bloom filters instead of resettable window counters.
//
// The detector keeps one time-decaying Bloom filter per hierarchy level and
// a decayed tracker of total traffic mass. Every packet updates the filters
// along its source address's generalisation chain and then performs an
// inline admission check: a prefix whose *conditioned* decayed mass — its
// own estimate minus the estimates claimed by currently active descendant
// HHHs — reaches phi of the total decayed mass becomes active. Active
// prefixes are re-validated lazily (on the packets that touch them and on
// Query) and exit below a configurable hysteresis fraction of the
// threshold, so reports do not flap around the boundary.
//
// Because decay is continuous there are no window edges: a burst that would
// straddle a disjoint-window boundary — precisely the traffic the paper
// shows is "hidden" — accumulates mass regardless of when it starts. The
// trade-off, quantified by the continuous-comparison experiment, is that
// detection is thresholded against an exponentially weighted past rather
// than a sharp interval.
package continuous

import (
	"fmt"
	"slices"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hashx"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// Config configures a Detector.
type Config struct {
	// Hierarchy of source prefixes; required (use addr.NewIPv4Hierarchy
	// or addr.NewIPv6Hierarchy).
	Hierarchy addr.Hierarchy
	// Phi is the HHH threshold as a fraction of total decayed traffic
	// mass, matching the windowed experiments' phi of window bytes.
	// Required, in (0,1].
	Phi float64
	// Filter configures the per-level time-decaying Bloom filters,
	// including the decay law. Filter.Decay is required; the decay
	// horizon plays the role the window length plays for windowed
	// detectors.
	Filter tdbf.Config
	// ExitRatio is the hysteresis: an active prefix exits when its
	// conditioned mass falls below ExitRatio*Phi*total. Default 0.9;
	// 1.0 disables hysteresis.
	ExitRatio float64
	// Warmup suppresses admissions until this much trace time has
	// passed after the first observed packet, letting the decayed total
	// reach steady state. Default is the decay horizon (zero for laws
	// without one). Anchoring at the first packet rather than at
	// timestamp zero keeps detection invariant under time translation:
	// a trace stamped in epoch nanoseconds warms up exactly like the
	// same trace stamped from zero.
	Warmup time.Duration
	// Sampled, when true, updates a single uniformly drawn level per
	// packet (RHHH-style) and scales estimates by the level count,
	// trading accuracy for an O(1) update. Seed drives the sampling.
	Sampled bool
	Seed    uint64
	// OnEnter/OnExit, when set, observe detection transitions with the
	// packet timestamp that triggered them.
	OnEnter func(p addr.Prefix, at int64)
	OnExit  func(p addr.Prefix, at int64)
}

// Detector is a continuous HHH detector. Not safe for concurrent use.
type Detector struct {
	cfg     Config
	levels  int
	filters []*tdbf.Filter
	total   *tdbf.MassTracker
	active  map[addr.Prefix]int64 // prefix -> activation timestamp
	anc     []addr.Prefix
	masks   []uint64 // per-level key masks, hoisted for the key fast path
	rng     uint64
	started bool  // first packet seen; warmEnd is anchored
	warmEnd int64 // first packet timestamp + Warmup
	pkts    int64
}

// NewDetector validates cfg and builds a detector.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	filters := make([]*tdbf.Filter, cfg.Hierarchy.Levels())
	for l := range filters {
		filters[l] = tdbf.New(cfg.levelFilter(l))
	}
	return newDetector(cfg, filters, tdbf.NewMassTracker(cfg.Filter.Decay)), nil
}

// setDefaults validates c and fills in the ExitRatio and Warmup defaults.
func (c *Config) setDefaults() error {
	if c.Phi <= 0 || c.Phi > 1 {
		return fmt.Errorf("continuous: Phi %v out of (0,1]", c.Phi)
	}
	if c.Filter.Decay == nil {
		return fmt.Errorf("continuous: Filter.Decay is required")
	}
	if c.ExitRatio == 0 {
		c.ExitRatio = 0.9
	}
	if c.ExitRatio < 0 || c.ExitRatio > 1 {
		return fmt.Errorf("continuous: ExitRatio %v out of (0,1]", c.ExitRatio)
	}
	if c.Warmup == 0 {
		c.Warmup = c.Filter.Decay.Horizon()
	}
	return nil
}

// levelFilter is the filter configuration of hierarchy level l: the
// shared shape and decay law under a per-level seed derived from Seed.
func (c *Config) levelFilter(l int) tdbf.Config {
	fc := c.Filter
	fc.Seed = hashx.Mix64(c.Seed + uint64(l) + 1)
	return fc
}

// newDetector assembles a detector for a defaulted cfg around adopted
// per-level filters and total-mass tracker.
func newDetector(cfg Config, filters []*tdbf.Filter, total *tdbf.MassTracker) *Detector {
	d := &Detector{
		cfg:     cfg,
		levels:  len(filters),
		filters: filters,
		total:   total,
		active:  make(map[addr.Prefix]int64),
		anc:     make([]addr.Prefix, 0, len(filters)),
		masks:   make([]uint64, len(filters)),
		rng:     hashx.Mix64(cfg.Seed ^ 0x6a09e667f3bcc909),
	}
	for l := range d.masks {
		d.masks[l] = cfg.Hierarchy.KeyMask(l)
	}
	return d
}

// scale is the estimate multiplier: level count under sampling, 1 otherwise.
func (d *Detector) scale() float64 {
	if d.cfg.Sampled {
		return float64(d.levels)
	}
	return 1
}

// estimate returns the scaled decayed-mass estimate of p at now.
func (d *Detector) estimate(p addr.Prefix, now int64) float64 {
	l := d.cfg.Hierarchy.Level(p.Bits)
	return d.filters[l].Estimate(d.cfg.Hierarchy.KeyOfPrefix(p), now) * d.scale()
}

// claimedUnder sums the estimates of maximal active strict descendants of
// p: the mass already claimed by more specific HHHs, to be discounted from
// p's own estimate. The active set is small (bounded by ~1/phi·levels), so
// the quadratic scan is cheap and only runs for prefixes that already
// passed the raw-mass pre-check.
func (d *Detector) claimedUnder(p addr.Prefix, now int64) float64 {
	var claimed float64
	for h := range d.active {
		if h == p || !p.Covers(h) {
			continue
		}
		// h is maximal under p when no other active prefix sits strictly
		// between p and h.
		maximal := true
		for m := range d.active {
			if m != h && m != p && p.Covers(m) && m.Covers(h) {
				maximal = false
				break
			}
		}
		if maximal {
			claimed += d.estimate(h, now)
		}
	}
	return claimed
}

// update is the per-packet body of UpdateKeys: it assumes d.anc already
// holds the packet's generalisation chain (leaf first) and applies the
// mass update, filter folds and admission pass.
func (d *Detector) update(bytes int64, now int64) {
	if !d.started {
		d.started = true
		d.warmEnd = now + int64(d.cfg.Warmup)
	}
	d.pkts++
	w := float64(bytes)
	d.total.Add(w, now)
	if d.cfg.Sampled {
		d.rng += 0x9e3779b97f4a7c15
		l := int((hashx.Mix64(d.rng) >> 32) * uint64(d.levels) >> 32)
		d.filters[l].Add(d.cfg.Hierarchy.KeyOfPrefix(d.anc[l]), w, now)
	} else {
		for l, pre := range d.anc {
			d.filters[l].Add(d.cfg.Hierarchy.KeyOfPrefix(pre), w, now)
		}
	}
	if now < d.warmEnd {
		return
	}
	enterT := d.cfg.Phi * d.total.Value(now)
	exitT := enterT * d.cfg.ExitRatio
	// Bottom-up along the packet's own chain: children admit before
	// parents so the parent's conditioned mass sees the fresh claim.
	for _, p := range d.anc {
		raw := d.estimate(p, now)
		if _, isActive := d.active[p]; isActive {
			if raw < exitT || raw-d.claimedUnder(p, now) < exitT {
				d.deactivate(p, now)
			}
			continue
		}
		if raw < enterT {
			continue // cheap pre-check: conditioning only shrinks mass
		}
		if raw-d.claimedUnder(p, now) >= enterT {
			d.active[p] = now
			if d.cfg.OnEnter != nil {
				d.cfg.OnEnter(p, now)
			}
		}
	}
}

// UpdateKeys feeds a columnar batch of pre-packed, family-filtered,
// time-ordered leaf keys (see trace.KeyBatch): each packet's
// generalisation chain is folded into the filters at its timestamp (ns,
// non-decreasing), and the chain's prefixes are checked for admission or
// exit. The chain is rebuilt from the leaf key by masking with the
// hierarchy's nested per-level masks (PrefixOfKey inverts the packing
// losslessly, so it equals Ancestors on the original address).
// Admission is inherently per packet — each arrival can change the
// active set — so batching amortises dispatch, not work.
func (d *Detector) UpdateKeys(b *trace.KeyBatch) {
	h := d.cfg.Hierarchy
	for i, key := range b.Keys {
		d.anc = d.anc[:0]
		for l, m := range d.masks {
			d.anc = append(d.anc, h.PrefixOfKey(key&m, l))
		}
		d.update(int64(b.Sizes[i]), b.Ts[i])
	}
}

func (d *Detector) deactivate(p addr.Prefix, now int64) {
	delete(d.active, p)
	if d.cfg.OnExit != nil {
		d.cfg.OnExit(p, now)
	}
}

// Query re-validates the whole active set at time now and returns the
// current HHH set with decayed-mass estimates. Prefixes whose conditioned
// mass fell below the exit threshold are deactivated (with OnExit fired).
func (d *Detector) Query(now int64) hhh.Set {
	out := hhh.Set{}
	if len(d.active) == 0 {
		return out
	}
	exitT := d.cfg.Phi * d.total.Value(now) * d.cfg.ExitRatio

	// Process most-specific first so claims propagate upward exactly as
	// in the exact algorithm's bottom-up pass.
	prefixes := make([]addr.Prefix, 0, len(d.active))
	for p := range d.active {
		prefixes = append(prefixes, p)
	}
	// Sort by descending Bits (then address for determinism).
	for i := 1; i < len(prefixes); i++ {
		for j := i; j > 0 && less(prefixes[j], prefixes[j-1]); j-- {
			prefixes[j], prefixes[j-1] = prefixes[j-1], prefixes[j]
		}
	}

	type verdict struct {
		est     float64
		claim   float64 // mass this subtree passes to its nearest ancestor
		keep    bool
		cond    float64
		claimed float64 // accumulated claims from descendants
	}
	verdicts := make(map[addr.Prefix]*verdict, len(prefixes))
	for _, p := range prefixes {
		verdicts[p] = &verdict{est: d.estimate(p, now)}
	}
	for _, p := range prefixes {
		v := verdicts[p]
		v.cond = v.est - v.claimed
		if v.cond >= exitT {
			v.keep = true
			v.claim = v.est
		} else {
			v.claim = v.claimed // pass through descendants' claims
		}
		// Attribute the claim to the nearest remaining candidate ancestor.
		if v.claim > 0 {
			var best *verdict
			bestBits := -1
			for _, q := range prefixes {
				if q == p || !q.Covers(p) {
					continue
				}
				if int(q.Bits) > bestBits {
					bestBits = int(q.Bits)
					best = verdicts[q]
				}
			}
			if best != nil {
				best.claimed += v.claim
			}
		}
	}
	for _, p := range prefixes {
		v := verdicts[p]
		if !v.keep {
			d.deactivate(p, now)
			continue
		}
		out.Add(hhh.Item{
			Prefix:      p,
			Count:       int64(v.est),
			Conditioned: int64(v.cond),
		})
	}
	return out
}

// less orders prefixes most-specific-first, then by address.
func less(a, b addr.Prefix) bool {
	if a.Bits != b.Bits {
		return a.Bits > b.Bits
	}
	return a.Addr.Less(b.Addr)
}

// Merge folds detector o into d; o is not modified. Both detectors must
// be built from the same Config (hierarchy, filter shape, seed and decay
// law), so their per-level filters merge cell-wise (see tdbf.Filter.Merge
// — decay-to-common-time plus add, preserving the conservative
// overestimate) and the total mass trackers likewise. The active sets are
// unioned, keeping the earlier activation timestamp.
//
// In the sharded pipeline every shard admits against its *own* decayed
// mass — a fraction ~1/K of the global mass under hash partitioning — so
// the shard-local thresholds are proportionally lower and the union of
// shard active sets is a superset of the globally admissible candidates.
// A Query on the merged detector re-validates every candidate against
// the merged (global) mass and deactivates the over-admissions, so
// merged reports match a single detector's up to filter collision noise
// and partitioning variance on interior prefixes.
func (d *Detector) Merge(o *Detector) {
	if o == nil {
		return
	}
	if d.levels != o.levels || d.cfg.Hierarchy != o.cfg.Hierarchy {
		panic("continuous: Merge hierarchy mismatch")
	}
	for l := range d.filters {
		d.filters[l].Merge(o.filters[l])
	}
	d.total.Merge(o.total)
	for p, at := range o.active {
		if cur, ok := d.active[p]; !ok || at < cur {
			d.active[p] = at
		}
	}
	if o.started && (!d.started || o.warmEnd > d.warmEnd) {
		d.started = true
		d.warmEnd = o.warmEnd
	}
	d.pkts += o.pkts
}

// CopyFrom makes d an exact copy of o — filters, total-mass tracker,
// active set, warmup anchor, packet count and sampler — reusing d's
// storage. A zero Detector is a valid receiver.
func (d *Detector) CopyFrom(o *Detector) {
	filters, total, active, anc, masks := d.filters, d.total, d.active, d.anc, d.masks
	*d = *o
	d.filters = slices.Grow(filters[:0], len(o.filters))[:len(o.filters)]
	for l, f := range o.filters {
		if d.filters[l] == nil {
			d.filters[l] = new(tdbf.Filter)
		}
		d.filters[l].CopyFrom(f)
	}
	if total == nil {
		total = new(tdbf.MassTracker)
	}
	total.CopyFrom(o.total)
	d.total = total
	if active == nil {
		active = make(map[addr.Prefix]int64, len(o.active))
	}
	clear(active)
	for p, at := range o.active {
		active[p] = at
	}
	d.active = active
	d.anc = slices.Grow(anc[:0], o.levels)
	d.masks = append(masks[:0], o.masks...)
}

// ActiveLen returns the size of the active set without revalidation.
func (d *Detector) ActiveLen() int { return len(d.active) }

// TotalMass returns the decayed total traffic mass at now.
func (d *Detector) TotalMass(now int64) float64 { return d.total.Value(now) }

// Packets returns the number of packets observed.
func (d *Detector) Packets() int64 { return d.pkts }

// SizeBytes returns the state footprint: the per-level filters plus the
// (bounded) active set.
func (d *Detector) SizeBytes() int {
	n := 0
	for _, f := range d.filters {
		n += f.SizeBytes()
	}
	return n + len(d.active)*24
}

// Reset returns the detector to its initial state (the RNG continues).
func (d *Detector) Reset() {
	for _, f := range d.filters {
		f.Reset()
	}
	d.total.Reset()
	d.active = make(map[addr.Prefix]int64)
	d.started = false
	d.warmEnd = 0
	d.pkts = 0
}
