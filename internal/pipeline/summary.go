// The Summary contract and the one mapping from engine values to it.
// newSummary builds an engine for a Config and summaryOf wraps it; the
// Aggregator wraps every engine wire.Decode returns through the same
// summaryOf, and sealing frames an adapter's engine with wire.Encode. So
// the merge, advance and query rule of each kind is written once, here,
// for the shards, the barrier merge and the cluster aggregator alike.

package pipeline

import (
	"fmt"

	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// Summary is the pluggable per-shard digest: any mergeable summary of a
// packet substream can sit behind the pipeline's rings and barriers. All
// methods are called from a single goroutine at a time (the shard's
// worker, or — between barriers — the merging worker).
type Summary interface {
	// UpdateKeys absorbs a time-ordered columnar batch of pre-packed,
	// family-filtered leaf keys (see trace.KeyBatch). The producer packs
	// each key exactly once; summaries derive per-level keys by masking.
	UpdateKeys(b *trace.KeyBatch)
	// Advance aligns time-dependent state to now (expiring sliding
	// frames) so that equally-advanced summaries merge frame-for-frame.
	// Summaries without eager time state treat it as a no-op.
	Advance(now int64)
	// Merge folds o — a summary of the same kind and geometry — into
	// the receiver without modifying o.
	Merge(o Summary)
	// Query returns the HHH set at time now together with the total mass
	// (the threshold denominator: window bytes, covered sliding bytes, or
	// decayed mass).
	Query(now int64) (hhh.Set, int64)
	// Reset returns the summary to its empty state.
	Reset()
	// SizeBytes reports the summary's state footprint.
	SizeBytes() int
	// engine returns the wrapped engine value: the form summaryOf
	// wraps, wire.Encode frames and wire.Decode returns.
	engine() any
}

// latestSummary is the extra contract of the kinds the Aggregator
// merges latest-frame-per-node (sliding, memento and continuous): it
// keeps each node's decoded summary and re-merges the fleet on every
// publish, into one accumulator it reuses.
type latestSummary interface {
	Summary
	// copyTo makes dst an exact copy of the receiver, reusing dst's
	// storage, and returns it; a nil dst gets a new adapter.
	copyTo(dst Summary) Summary
	// mergeable returns why o — a summary of the same kind — cannot
	// Merge into the receiver: the engine geometry whose drift makes
	// Merge panic.
	mergeable(o Summary) error
}

// newSummary builds one shard's summary for cfg.
func newSummary(cfg *Config, shard int) (Summary, error) {
	// splitmix64 increments decorrelate the per-shard sampling streams of
	// RHHH and Memento; shard 0 keeps cfg.Seed so a 1-shard pipeline
	// reproduces the single-detector sequence exactly.
	seed := cfg.Seed ^ (uint64(shard) * 0x9e3779b97f4a7c15)
	var eng any
	var err error
	switch {
	case cfg.Mode == ModeSliding && cfg.Engine == KindMemento:
		eng, err = swhh.NewMementoHHH(cfg.Hierarchy, cfg.slidingConfig(), seed)
	case cfg.Mode == ModeSliding:
		eng, err = swhh.NewSlidingHHH(cfg.Hierarchy, cfg.slidingConfig())
	case cfg.Mode == ModeContinuous:
		eng, err = continuous.NewDetector(continuous.Config{
			Hierarchy: cfg.Hierarchy,
			Phi:       cfg.Phi,
			Filter: tdbf.Config{
				Cells:  cfg.Cells,
				Hashes: cfg.Hashes,
				Decay:  tdbf.Exponential{Tau: cfg.Window},
			},
			ExitRatio: cfg.ExitRatio,
			Sampled:   cfg.Sampled,
			Seed:      cfg.Seed,
			OnEnter:   cfg.OnEnter,
			OnExit:    cfg.OnExit,
		})
	case cfg.Engine == KindPerLevel:
		eng = hhh.NewPerLevel(cfg.Hierarchy, cfg.Counters)
	case cfg.Engine == KindRHHH:
		eng = hhh.NewRHHH(cfg.Hierarchy, cfg.Counters, seed)
	default:
		eng = wire.ExactSummary{Hierarchy: cfg.Hierarchy, Leaves: sketch.NewExact(1024)}
	}
	if err != nil {
		return nil, err
	}
	return summaryOf(eng, cfg.Phi)
}

// summaryOf maps an engine value — one newSummary builds or wire.Decode
// returns — to its Summary adapter, thresholding at phi of the
// adapter's total mass. Continuous detectors threshold at the phi they
// were built (or sealed) with.
func summaryOf(eng any, phi float64) (Summary, error) {
	switch e := eng.(type) {
	case wire.ExactSummary:
		return &exactSummary{ExactSummary: e, phi: phi}, nil
	case *hhh.PerLevel:
		return &perLevelSummary{d: e, phi: phi}, nil
	case *hhh.RHHH:
		return &rhhhSummary{d: e, phi: phi}, nil
	case *swhh.SlidingHHH:
		return &slidingSummary{d: e, phi: phi}, nil
	case *swhh.MementoHHH:
		return &mementoSummary{d: e, phi: phi}, nil
	case *continuous.Detector:
		return &continuousSummary{d: e}, nil
	default:
		return nil, fmt.Errorf("pipeline: %T is not a mergeable HHH summary", eng)
	}
}

// exactSummary adapts the exact leaf map of one disjoint window. It
// carries no time state: Advance is a no-op and Query ignores now,
// thresholding against the accumulated window volume.
type exactSummary struct {
	wire.ExactSummary
	phi float64
}

// UpdateKeys counts leaves only, so the packed key is the counter key
// verbatim — no masking, no Addr math.
func (e *exactSummary) UpdateKeys(b *trace.KeyBatch) {
	for i, k := range b.Keys {
		e.Leaves.Update(k, int64(b.Sizes[i]))
	}
}

func (e *exactSummary) Advance(int64)   {}
func (e *exactSummary) Merge(s Summary) { e.Leaves.AddAll(s.(*exactSummary).Leaves) }
func (e *exactSummary) Reset()          { e.Leaves.Reset() }
func (e *exactSummary) SizeBytes() int  { return e.Leaves.Len() * 16 }
func (e *exactSummary) engine() any     { return e.ExactSummary }

func (e *exactSummary) Query(int64) (hhh.Set, int64) {
	total := e.Leaves.Total()
	return hhh.Exact(e.Leaves, e.Hierarchy, hhh.Threshold(total, e.phi)), total
}

// perLevelSummary adapts the per-level Space-Saving windowed engine;
// like exactSummary it has no time state.
type perLevelSummary struct {
	d   *hhh.PerLevel
	phi float64
}

func (e *perLevelSummary) UpdateKeys(b *trace.KeyBatch) { e.d.UpdateKeys(b) }
func (e *perLevelSummary) Advance(int64)                {}
func (e *perLevelSummary) Merge(s Summary)              { e.d.Merge(s.(*perLevelSummary).d) }
func (e *perLevelSummary) Reset()                       { e.d.Reset() }
func (e *perLevelSummary) SizeBytes() int               { return e.d.SizeBytes() }
func (e *perLevelSummary) engine() any                  { return e.d }

func (e *perLevelSummary) Query(int64) (hhh.Set, int64) {
	total := e.d.Total()
	return e.d.Query(hhh.Threshold(total, e.phi)), total
}

// rhhhSummary adapts the randomised one-level-per-packet windowed
// engine; like exactSummary it has no time state.
type rhhhSummary struct {
	d   *hhh.RHHH
	phi float64
}

func (e *rhhhSummary) UpdateKeys(b *trace.KeyBatch) { e.d.UpdateKeys(b) }
func (e *rhhhSummary) Advance(int64)                {}
func (e *rhhhSummary) Merge(s Summary)              { e.d.Merge(s.(*rhhhSummary).d) }
func (e *rhhhSummary) Reset()                       { e.d.Reset() }
func (e *rhhhSummary) SizeBytes() int               { return e.d.SizeBytes() }
func (e *rhhhSummary) engine() any                  { return e.d }

func (e *rhhhSummary) Query(int64) (hhh.Set, int64) {
	total := e.d.Total()
	return e.d.Query(hhh.Threshold(total, e.phi)), total
}

// slidingSummary adapts the per-level WCSS sliding detector. Advance
// aligns the frame rings at the query barrier so Merge is frame-by-frame.
type slidingSummary struct {
	d   *swhh.SlidingHHH
	phi float64
}

func (e *slidingSummary) UpdateKeys(b *trace.KeyBatch) { e.d.UpdateKeys(b) }
func (e *slidingSummary) Advance(now int64)            { e.d.Advance(now) }
func (e *slidingSummary) Merge(s Summary)              { e.d.Merge(s.(*slidingSummary).d) }
func (e *slidingSummary) Reset()                       { e.d.Reset() }
func (e *slidingSummary) SizeBytes() int               { return e.d.SizeBytes() }
func (e *slidingSummary) engine() any                  { return e.d }

func (e *slidingSummary) Query(now int64) (hhh.Set, int64) {
	return e.d.Query(e.phi, now), e.d.WindowTotal(now)
}

func (e *slidingSummary) copyTo(dst Summary) Summary {
	c, _ := dst.(*slidingSummary)
	if c == nil {
		c = &slidingSummary{d: new(swhh.SlidingHHH)}
	}
	c.d.CopyFrom(e.d)
	c.phi = e.phi
	return c
}

// mergeable requires the frame ring to match; per-frame Space-Saving
// capacities may differ, as in PerLevel.
func (e *slidingSummary) mergeable(o Summary) error {
	a, b := e.d.Config(), o.(*slidingSummary).d.Config()
	if a.Window != b.Window || a.Frames != b.Frames {
		return fmt.Errorf("sliding frames %v/%d, fleet merges %v/%d", b.Window, b.Frames, a.Window, a.Frames)
	}
	return nil
}

// mementoSummary adapts the level-sampled Memento sliding detector. Like
// slidingSummary, Advance aligns the frame clocks at the query barrier so
// Merge is frame-by-frame; the reported mass comes from the wrapper's
// exact totals ring, so accounting carries no sampling noise.
type mementoSummary struct {
	d   *swhh.MementoHHH
	phi float64
}

func (e *mementoSummary) UpdateKeys(b *trace.KeyBatch) { e.d.UpdateKeys(b) }
func (e *mementoSummary) Advance(now int64)            { e.d.Advance(now) }
func (e *mementoSummary) Merge(s Summary)              { e.d.Merge(s.(*mementoSummary).d) }
func (e *mementoSummary) Reset()                       { e.d.Reset() }
func (e *mementoSummary) SizeBytes() int               { return e.d.SizeBytes() }
func (e *mementoSummary) engine() any                  { return e.d }

func (e *mementoSummary) Query(now int64) (hhh.Set, int64) {
	return e.d.Query(e.phi, now), e.d.WindowTotal(now)
}

func (e *mementoSummary) copyTo(dst Summary) Summary {
	c, _ := dst.(*mementoSummary)
	if c == nil {
		c = &mementoSummary{d: new(swhh.MementoHHH)}
	}
	c.d.CopyFrom(e.d)
	c.phi = e.phi
	return c
}

// mergeable requires the frame ring and the table capacity to match.
func (e *mementoSummary) mergeable(o Summary) error {
	if a, b := e.d.Config(), o.(*mementoSummary).d.Config(); a != b {
		return fmt.Errorf("memento geometry %v/%d frames/%d counters, fleet merges %v/%d/%d",
			b.Window, b.Frames, b.Counters, a.Window, a.Frames, a.Counters)
	}
	return nil
}

// continuousSummary adapts the time-decaying Bloom filter detector. The
// filters decay lazily, so Advance has nothing to do; Merge decays cell
// pairs to a common time as it adds them.
type continuousSummary struct {
	d *continuous.Detector
}

func (e *continuousSummary) UpdateKeys(b *trace.KeyBatch) { e.d.UpdateKeys(b) }
func (e *continuousSummary) Advance(int64)                {}
func (e *continuousSummary) Merge(s Summary)              { e.d.Merge(s.(*continuousSummary).d) }
func (e *continuousSummary) Reset()                       { e.d.Reset() }
func (e *continuousSummary) SizeBytes() int               { return e.d.SizeBytes() }
func (e *continuousSummary) engine() any                  { return e.d }

func (e *continuousSummary) Query(now int64) (hhh.Set, int64) {
	return e.d.Query(now), int64(e.d.TotalMass(now))
}

func (e *continuousSummary) copyTo(dst Summary) Summary {
	c, _ := dst.(*continuousSummary)
	if c == nil {
		c = &continuousSummary{d: new(continuous.Detector)}
	}
	c.d.CopyFrom(e.d)
	return c
}

// mergeable requires the filter shape, seed and decay law to match.
func (e *continuousSummary) mergeable(o Summary) error {
	a, b := e.d.Config(), o.(*continuousSummary).d.Config()
	if a.Seed != b.Seed || a.Filter.Cells != b.Filter.Cells || a.Filter.Hashes != b.Filter.Hashes ||
		a.Filter.Decay.String() != b.Filter.Decay.String() {
		return fmt.Errorf("continuous filters %d×%d seed %d %v, fleet merges %d×%d seed %d %v",
			b.Filter.Cells, b.Filter.Hashes, b.Seed, b.Filter.Decay, a.Filter.Cells, a.Filter.Hashes, a.Seed, a.Filter.Decay)
	}
	return nil
}
