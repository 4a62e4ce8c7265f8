// Serialization seams for the sliding engines: read-only state views and
// validated restore constructors, the basis of the internal/wire codec.
// Restores rebuild the exact internal layout (frame clocks, dense entry
// tables, key indexes), so a restored summary is merge- and
// query-equivalent to the one that was serialized; unlike the
// constructors and Merge they validate instead of panicking, because
// their inputs ultimately come off the network.

package swhh

import (
	"fmt"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
)

// FrameUninit is the exported sentinel for a frame clock that has never
// advanced (see frameUninit); wire codecs transport it verbatim.
const FrameUninit = frameUninit

// SlidingState is the serializable state of a flat Sliding summary: the
// global index of the frame currently filling plus the ring of per-frame
// summaries and exact totals (Frames+1 slots, slot = frame mod ring).
// The slices returned by State view live storage — treat as read-only.
type SlidingState struct {
	CurFrame int64
	Frames   []*sketch.SpaceSaving
	Totals   []int64
}

// Config returns the summary's configuration (defaults applied).
func (s *Sliding) Config() Config { return s.cfg }

// State returns a read-only view of the summary's serializable state.
func (s *Sliding) State() SlidingState {
	return SlidingState{CurFrame: s.curFrame, Frames: s.frames, Totals: s.totals}
}

// RestoreSliding rebuilds a flat Sliding summary from cfg and serialized
// state, adopting its frame summaries (typically from
// sketch.RestoreSpaceSaving) and totals ring. Ring length and per-frame
// capacities must match cfg, and an uninitialised frame clock requires
// an empty ring.
func RestoreSliding(cfg Config, st SlidingState) (*Sliding, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	frameNs, ring := cfg.geometry()
	if int64(len(st.Frames)) != ring || int64(len(st.Totals)) != ring {
		return nil, fmt.Errorf("swhh: restore: ring %d/%d does not match config ring %d",
			len(st.Frames), len(st.Totals), ring)
	}
	for i, f := range st.Frames {
		if f == nil {
			return nil, fmt.Errorf("swhh: restore: nil frame summary at slot %d", i)
		}
		if f.Capacity() != cfg.Counters {
			return nil, fmt.Errorf("swhh: restore: frame %d capacity %d != configured %d",
				i, f.Capacity(), cfg.Counters)
		}
		if st.Totals[i] < 0 {
			return nil, fmt.Errorf("swhh: restore: negative frame total at slot %d", i)
		}
		if st.CurFrame == frameUninit && (f.Len() != 0 || st.Totals[i] != 0) {
			return nil, fmt.Errorf("swhh: restore: uninitialised frame clock with non-empty slot %d", i)
		}
	}
	return &Sliding{
		cfg:      cfg,
		frameNs:  frameNs,
		frames:   st.Frames,
		totals:   st.Totals,
		curFrame: st.CurFrame,
	}, nil
}

// Hierarchy returns the configured hierarchy.
func (d *SlidingHHH) Hierarchy() addr.Hierarchy { return d.h }

// Config returns the per-level summary configuration (defaults applied).
func (d *SlidingHHH) Config() Config { return d.levels[0].cfg }

// LevelSummary returns level l's flat summary for serialization. The
// returned summary is the live one — callers must treat it as read-only.
func (d *SlidingHHH) LevelSummary(l int) *Sliding { return d.levels[l] }

// RestoreSlidingHHH rebuilds a per-level sliding HHH detector from the
// hierarchy and one restored flat summary per level. All levels must
// share the same frame geometry.
func RestoreSlidingHHH(h addr.Hierarchy, levels []*Sliding) (*SlidingHHH, error) {
	if len(levels) != h.Levels() {
		return nil, fmt.Errorf("swhh: restore: %d level summaries for %d-level hierarchy %v",
			len(levels), h.Levels(), h)
	}
	d := &SlidingHHH{
		h:      h,
		levels: make([]*Sliding, len(levels)),
		masks:  make([]uint64, len(levels)),
		high:   h.KeyFromHigh(),
		seen:   make(map[uint64]struct{}, 64),
		qs:     hhh.NewQueryScratch(),
	}
	for l, lv := range levels {
		if lv == nil {
			return nil, fmt.Errorf("swhh: restore: nil summary at level %d", l)
		}
		if lv.frameNs != levels[0].frameNs || len(lv.frames) != len(levels[0].frames) {
			return nil, fmt.Errorf("swhh: restore: level %d frame geometry differs from level 0", l)
		}
		d.levels[l] = lv
		d.masks[l] = h.KeyMask(l)
	}
	return d, nil
}

// MementoState is the serializable state of a flat Memento summary: the
// frame clock and eviction cursor plus the dense entry table (the first
// len(Keys) entries, with the flattened entry-major frame-cell matrix)
// and the exact per-frame totals ring. The slices returned by State view
// live storage — treat as read-only.
type MementoState struct {
	CurFrame int64
	Cursor   int
	Keys     []uint64
	Counts   []int64
	Errs     []int64
	Cells    []int64 // entry-major, len(Keys) × ring
	Totals   []int64 // ring (Frames+1 slots)
}

// Config returns the summary's configuration (defaults applied).
func (m *Memento) Config() Config { return m.cfg }

// State returns a read-only view of the summary's serializable state.
func (m *Memento) State() MementoState {
	return MementoState{
		CurFrame: m.curFrame,
		Cursor:   m.cursor,
		Keys:     m.keys[:m.n],
		Counts:   m.counts[:m.n],
		Errs:     m.errs[:m.n],
		Cells:    m.cells[:int64(m.n)*m.ring],
		Totals:   m.totals,
	}
}

// RestoreMemento rebuilds a flat Memento summary of n entries from cfg,
// allocating its table once: fill writes the serialized state straight
// into a MementoState whose columns view the new table's storage (n
// keys, counts and errs, n × ring entry-major cells and the ring of
// totals) and sets the frame clock and eviction cursor. The table is
// then validated in place and its key index rebuilt. Entry invariants
// are enforced: each windowed count must be positive and equal the sum
// of its frame cells, error slop must lie in [0, count], keys must be
// unique, and an uninitialised frame clock requires an empty table.
func RestoreMemento(cfg Config, n int, fill func(st *MementoState)) (*Memento, error) {
	m, err := NewMemento(cfg)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > len(m.keys) {
		return nil, fmt.Errorf("swhh: restore: %d entries exceed capacity %d", n, len(m.keys))
	}
	st := MementoState{
		Keys:   m.keys[:n],
		Counts: m.counts[:n],
		Errs:   m.errs[:n],
		Cells:  m.cells[:int64(n)*m.ring],
		Totals: m.totals,
	}
	fill(&st)
	if len(st.Keys) != n || len(st.Counts) != n || len(st.Errs) != n || len(st.Cells) != int(int64(n)*m.ring) {
		return nil, fmt.Errorf("swhh: restore: entry column lengths disagree (%d keys, %d counts, %d errs, %d cells)",
			n, len(st.Counts), len(st.Errs), len(st.Cells))
	}
	if len(st.Totals) != len(m.totals) {
		return nil, fmt.Errorf("swhh: restore: totals ring %d != configured ring %d", len(st.Totals), len(m.totals))
	}
	if st.Cursor < 0 || st.Cursor > len(m.keys) {
		return nil, fmt.Errorf("swhh: restore: cursor %d out of range", st.Cursor)
	}
	for i, t := range m.totals {
		if t < 0 {
			return nil, fmt.Errorf("swhh: restore: negative frame total at slot %d", i)
		}
		if st.CurFrame == frameUninit && t != 0 {
			return nil, fmt.Errorf("swhh: restore: uninitialised frame clock with non-empty slot %d", i)
		}
	}
	if st.CurFrame == frameUninit && n != 0 {
		return nil, fmt.Errorf("swhh: restore: uninitialised frame clock with %d entries", n)
	}
	for e := 0; e < n; e++ {
		var sum int64
		for s, c := range m.cells[int64(e)*m.ring : int64(e+1)*m.ring] {
			if c < 0 {
				return nil, fmt.Errorf("swhh: restore: negative cell for entry %d slot %d", e, s)
			}
			sum += c
		}
		if m.counts[e] <= 0 || m.counts[e] != sum {
			return nil, fmt.Errorf("swhh: restore: entry %d count %d does not match cell sum %d", e, m.counts[e], sum)
		}
		if m.errs[e] < 0 || m.errs[e] > m.counts[e] {
			return nil, fmt.Errorf("swhh: restore: entry %d error slop %d out of [0, %d]", e, m.errs[e], m.counts[e])
		}
		if m.find(m.keys[e]) >= 0 {
			return nil, fmt.Errorf("swhh: restore: duplicate key %#x", m.keys[e])
		}
		m.idxInsert(m.keys[e], e)
		m.n = e + 1
	}
	m.cursor = st.Cursor
	m.curFrame = st.CurFrame
	return m, nil
}

// MementoHHHState is the serializable state of the hierarchical wrapper:
// the level-sampling splitmix64 state, the wrapper's exact totals ring
// with its frame clock, and the per-level tables. The slices returned by
// State view live storage — treat as read-only.
type MementoHHHState struct {
	Sampler  uint64
	CurFrame int64
	Totals   []int64
	Levels   []*Memento
}

// Hierarchy returns the configured hierarchy.
func (d *MementoHHH) Hierarchy() addr.Hierarchy { return d.h }

// Config returns the per-level summary configuration (defaults applied).
func (d *MementoHHH) Config() Config { return d.levels[0].cfg }

// State returns a read-only view of the detector's serializable state.
func (d *MementoHHH) State() MementoHHHState {
	return MementoHHHState{Sampler: d.rng, CurFrame: d.curFrame, Totals: d.totals, Levels: d.levels}
}

// RestoreMementoHHH rebuilds a level-sampled Memento HHH detector from
// the hierarchy, the shared Config, and serialized state. The per-level
// tables (typically from RestoreMemento) and the totals ring are
// adopted; the tables must share the configured frame geometry.
func RestoreMementoHHH(h addr.Hierarchy, cfg Config, st MementoHHHState) (*MementoHHH, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	frameNs, ring := cfg.geometry()
	if len(st.Levels) != h.Levels() {
		return nil, fmt.Errorf("swhh: restore: %d level tables for %d-level hierarchy %v",
			len(st.Levels), h.Levels(), h)
	}
	if int64(len(st.Totals)) != ring {
		return nil, fmt.Errorf("swhh: restore: totals ring %d != configured ring %d", len(st.Totals), ring)
	}
	for i, t := range st.Totals {
		if t < 0 {
			return nil, fmt.Errorf("swhh: restore: negative frame total at slot %d", i)
		}
		if st.CurFrame == frameUninit && t != 0 {
			return nil, fmt.Errorf("swhh: restore: uninitialised frame clock with non-empty slot %d", i)
		}
	}
	for l, lv := range st.Levels {
		if lv == nil {
			return nil, fmt.Errorf("swhh: restore: nil table at level %d", l)
		}
		if lv.frameNs != frameNs || lv.ring != ring || len(lv.keys) != cfg.Counters {
			return nil, fmt.Errorf("swhh: restore: level %d geometry differs from config", l)
		}
	}
	return newMementoHHH(h, st.Levels, st.Totals, st.Sampler, st.CurFrame), nil
}
