package window

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
)

// TrimResult is one baseline window together with the aggregates needed to
// evaluate every trimmed variant of it: variant j covers
// [Start, End-Trims[j]), i.e. the baseline minus its last Trims[j] of
// traffic. It is only valid during the delivering callback.
type TrimResult struct {
	Index   int
	Start   int64
	End     int64
	Packets int
	Bytes   int64
	Leaves  *sketch.Exact // full [Start, End) aggregate
	// Trims lists the trim durations, sorted ascending, as configured.
	Trims []time.Duration
	// TailLeaves[j] aggregates packets in [End-Trims[j], End): exactly the
	// traffic a Trims[j]-shorter window loses.
	TailLeaves []*sketch.Exact
	// TailBytes[j] is the total bytes of TailLeaves[j].
	TailBytes []int64
	// TailPackets[j] is the packet count of TailLeaves[j].
	TailPackets []int
}

// VariantLeaves materialises the aggregate of variant j (baseline minus its
// tail) as a fresh counter. Cost is proportional to the tail size, which
// for millisecond trims is a tiny fraction of the window.
func (r *TrimResult) VariantLeaves(j int) *sketch.Exact {
	v := r.Leaves.Clone()
	r.TailLeaves[j].ForEach(func(k uint64, c int64) { v.Remove(k, c) })
	return v
}

// VariantBytes returns the total bytes of variant j.
func (r *TrimResult) VariantBytes(j int) int64 { return r.Bytes - r.TailBytes[j] }

// TrimConfig configures TrimmedTumble.
type TrimConfig struct {
	// Width, Origin, End and Hierarchy as in Config; windows are disjoint
	// (tumbling), matching the paper's baseline of fixed 10 s windows.
	Width     time.Duration
	Origin    int64
	End       int64
	Hierarchy addr.Hierarchy
	// Trims are the amounts by which variant windows are shorter than the
	// baseline (the paper uses 10..100 ms). Each must be positive and
	// smaller than Width. Duplicates are rejected.
	Trims []time.Duration
}

// TrimmedTumble evaluates disjoint baseline windows of cfg.Width and, in
// the same pass, the tail aggregates for every configured trim, calling fn
// once per baseline window. This is the engine behind the paper's
// "micro variations in window sizes" experiment: rather than re-running the
// analysis once per window length, each variant is derived from the
// baseline by subtracting its tail band.
func TrimmedTumble(src trace.Source, cfg TrimConfig, fn func(*TrimResult) error) error {
	if cfg.Width <= 0 {
		return fmt.Errorf("%w: width %v must be positive", ErrConfig, cfg.Width)
	}
	if cfg.End-cfg.Origin < int64(cfg.Width) {
		return fmt.Errorf("%w: span shorter than one window", ErrConfig)
	}
	if len(cfg.Trims) == 0 {
		return fmt.Errorf("%w: no trims configured", ErrConfig)
	}
	trims := append([]time.Duration(nil), cfg.Trims...)
	sort.Slice(trims, func(i, j int) bool { return trims[i] < trims[j] })
	for i, d := range trims {
		if d <= 0 || d >= cfg.Width {
			return fmt.Errorf("%w: trim %v out of (0, width)", ErrConfig, d)
		}
		if i > 0 && trims[i-1] == d {
			return fmt.Errorf("%w: duplicate trim %v", ErrConfig, d)
		}
	}

	pack := trace.NewPacker(orDefault(cfg.Hierarchy))
	width := int64(cfg.Width)
	positions := int((cfg.End - cfg.Origin) / width)
	res := TrimResult{
		Trims:       trims,
		Leaves:      sketch.NewExact(1024),
		TailLeaves:  make([]*sketch.Exact, len(trims)),
		TailBytes:   make([]int64, len(trims)),
		TailPackets: make([]int, len(trims)),
	}
	for j := range res.TailLeaves {
		res.TailLeaves[j] = sketch.NewExact(64)
	}

	resetWindow := func(idx int) {
		res.Index = idx
		res.Start = cfg.Origin + int64(idx)*width
		res.End = res.Start + width
		res.Packets = 0
		res.Bytes = 0
		res.Leaves.Reset()
		for j := range res.TailLeaves {
			res.TailLeaves[j].Reset()
			res.TailBytes[j] = 0
			res.TailPackets[j] = 0
		}
	}

	curIdx := 0
	resetWindow(0)
	flushThrough := func(idx int) error { // emit windows curIdx..idx-1
		for curIdx < idx && curIdx < positions {
			if err := fn(&res); err != nil {
				return err
			}
			curIdx++
			resetWindow(curIdx)
		}
		return nil
	}

	var p trace.Packet
	for {
		err := src.Next(&p)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		if p.Ts < cfg.Origin || p.Ts >= cfg.Origin+int64(positions)*width {
			continue
		}
		idx := int((p.Ts - cfg.Origin) / width)
		if idx > curIdx {
			if err := flushThrough(idx); err != nil {
				return err
			}
		}
		key, ok := pack.Key(p.Src)
		if !ok {
			continue
		}
		w := int64(p.Size)
		res.Leaves.Update(key, w)
		res.Packets++
		res.Bytes += w
		// offset from window end decides tail membership per trim.
		fromEnd := res.End - p.Ts
		for j := len(trims) - 1; j >= 0; j-- {
			if fromEnd > int64(trims[j]) {
				break // trims sorted ascending: smaller trims exclude even less
			}
			res.TailLeaves[j].Update(key, w)
			res.TailBytes[j] += w
			res.TailPackets[j]++
		}
	}
	return flushThrough(positions)
}
