package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/window"
)

// SensitivityConfig parameterises the Figure-3 experiment: the trace is
// tiled by disjoint windows of the baseline width and, in parallel, by
// windows 10–100 ms shorter, all series starting at the trace origin. The
// k-th windows of each pair of series are compared by the Jaccard
// similarity of their HHH sets, for as long as they still overlap — a
// window-length error of δ compounds into a phase drift of k·δ by the
// k-th window, which is how micro variations in window size lead to
// macroscopically different reports.
type SensitivityConfig struct {
	// Baseline window length (the paper uses 10 s).
	Baseline time.Duration
	// Trims are the reductions applied to the baseline width (the paper
	// uses 10..100 ms in 10 ms steps). Defaults to exactly that.
	Trims []time.Duration
	// Phi is the HHH threshold fraction (the paper uses 5%).
	Phi float64
	// Span is the analysed trace duration (the paper uses 20 minutes).
	Span int64
	// Hierarchy is the prefix lattice the analysis runs over, keyed by
	// source address and weighted by bytes. Defaults to the IPv4 byte
	// ladder.
	Hierarchy addr.Hierarchy
}

func (c *SensitivityConfig) setDefaults() {
	if c.Baseline == 0 {
		c.Baseline = 10 * time.Second
	}
	if len(c.Trims) == 0 {
		for d := 10 * time.Millisecond; d <= 100*time.Millisecond; d += 10 * time.Millisecond {
			c.Trims = append(c.Trims, d)
		}
	}
	if c.Phi == 0 {
		c.Phi = 0.05
	}
	if c.Hierarchy == (addr.Hierarchy{}) {
		c.Hierarchy = addr.NewIPv4Hierarchy(addr.Byte)
	}
}

// SensitivityResult aggregates the per-pair Jaccard similarities for one
// trim value — one line of Figure 3.
type SensitivityResult struct {
	Trim time.Duration
	// Jaccard holds one sample per compared (baseline, variant) window
	// pair, in pair order.
	Jaccard *metrics.Dist
	// Pairs is the number of overlapping pairs compared (pairs whose
	// windows no longer overlap are excluded, following the paper).
	Pairs int
}

// DissimilarFraction returns the fraction of pairs whose HHH sets differ
// by at least diff (i.e. Jaccard <= 1-diff) — the form in which the paper
// states its Figure-3 findings.
func (r SensitivityResult) DissimilarFraction(diff float64) float64 {
	return r.Jaccard.FractionAtMost(1 - diff)
}

// tiling accumulates one disjoint-window series of a given width.
type tiling struct {
	width  int64
	leaves *sketch.Exact
	bytes  int64
	idx    int
	max    int // number of complete windows in the span
	sets   []hhh.Set
}

func (t *tiling) flushThrough(targetIdx int, h addr.Hierarchy, phi float64) {
	for t.idx < targetIdx && t.idx < t.max {
		t.sets = append(t.sets, hhh.Exact(t.leaves, h, hhh.Threshold(t.bytes, phi)))
		t.leaves.Reset()
		t.bytes = 0
		t.idx++
	}
}

// WindowSensitivity runs the Figure-3 analysis in a single pass: one
// tiling accumulator per window width (baseline plus every trimmed
// variant), then pairwise Jaccard over same-index windows while they
// overlap.
func WindowSensitivity(provider Provider, cfg SensitivityConfig) ([]SensitivityResult, error) {
	cfg.setDefaults()
	if cfg.Span < int64(cfg.Baseline) {
		return nil, fmt.Errorf("core: span %v shorter than baseline window %v",
			time.Duration(cfg.Span), cfg.Baseline)
	}
	for _, d := range cfg.Trims {
		if d <= 0 || d >= cfg.Baseline {
			return nil, fmt.Errorf("core: trim %v out of (0, baseline)", d)
		}
	}
	src, err := provider()
	if err != nil {
		return nil, err
	}

	widths := make([]int64, 0, len(cfg.Trims)+1)
	widths = append(widths, int64(cfg.Baseline))
	for _, d := range cfg.Trims {
		widths = append(widths, int64(cfg.Baseline-d))
	}
	tilings := make([]*tiling, len(widths))
	for i, w := range widths {
		tilings[i] = &tiling{
			width:  w,
			leaves: sketch.NewExact(1024),
			max:    int(cfg.Span / w),
		}
	}

	pack := trace.NewPacker(cfg.Hierarchy)
	var p trace.Packet
	for {
		err := src.Next(&p)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if p.Ts < 0 || p.Ts >= cfg.Span {
			continue
		}
		key, ok := pack.Key(p.Src)
		if !ok {
			continue
		}
		w := int64(p.Size)
		for _, t := range tilings {
			idx := int(p.Ts / t.width)
			if idx > t.idx {
				t.flushThrough(idx, cfg.Hierarchy, cfg.Phi)
			}
			if t.idx >= t.max {
				continue // beyond the last complete window of this series
			}
			t.leaves.Update(key, w)
			t.bytes += w
		}
	}
	for _, t := range tilings {
		t.flushThrough(t.max, cfg.Hierarchy, cfg.Phi)
	}

	base := tilings[0]
	results := make([]SensitivityResult, len(cfg.Trims))
	for j, d := range cfg.Trims {
		vt := tilings[j+1]
		res := SensitivityResult{Trim: d, Jaccard: &metrics.Dist{}}
		for k := 0; k < len(base.sets) && k < len(vt.sets); k++ {
			// Overlap of baseline window k and variant window k is
			// W - (k+1)·δ; stop once they no longer overlap.
			if int64(cfg.Baseline)-int64(k+1)*int64(d) <= 0 {
				break
			}
			res.Jaccard.Observe(base.sets[k].Jaccard(vt.sets[k]))
			res.Pairs++
		}
		if res.Pairs == 0 {
			return nil, fmt.Errorf("core: no overlapping pairs for trim %v", d)
		}
		results[j] = res
	}
	return results, nil
}

// RenderSensitivity formats results as the Figure-3 table: summary
// quantiles of the per-pair Jaccard similarity per trim, plus the
// fraction of pairs differing by at least 11% and 25% (the two levels the
// paper quotes).
func RenderSensitivity(results []SensitivityResult) string {
	t := metrics.NewTable("trim", "pairs", "meanJ", "p10", "p30", "median",
		"frac(diff>=11%)", "frac(diff>=25%)")
	for _, r := range results {
		t.AddRow(r.Trim, r.Pairs, r.Jaccard.Mean(),
			r.Jaccard.Quantile(0.10), r.Jaccard.Quantile(0.30), r.Jaccard.Quantile(0.50),
			r.DissimilarFraction(0.11), r.DissimilarFraction(0.25))
	}
	return t.String()
}

// TailTrimSensitivity is the same-start variant of the window-size
// analysis (ablation E4d): every variant window shares its start with the
// baseline window and loses only its final Trim of traffic, isolating the
// pure tail effect from the cumulative phase drift that WindowSensitivity
// measures. Real traces show a much weaker effect here, which is itself
// evidence that Figure 3's signal comes from drift, not tails.
func TailTrimSensitivity(provider Provider, cfg SensitivityConfig) ([]SensitivityResult, error) {
	cfg.setDefaults()
	src, err := provider()
	if err != nil {
		return nil, err
	}
	results := make([]SensitivityResult, len(cfg.Trims))
	tcfg := window.TrimConfig{
		Width:     cfg.Baseline,
		End:       cfg.Span,
		Trims:     cfg.Trims,
		Hierarchy: cfg.Hierarchy,
	}
	err = window.TrimmedTumble(src, tcfg, func(r *window.TrimResult) error {
		if results[0].Jaccard == nil {
			for j, d := range r.Trims {
				results[j] = SensitivityResult{Trim: d, Jaccard: &metrics.Dist{}}
			}
		}
		base := hhh.Exact(r.Leaves, cfg.Hierarchy, hhh.Threshold(r.Bytes, cfg.Phi))
		for j := range r.Trims {
			leaves := r.VariantLeaves(j)
			variant := hhh.Exact(leaves, cfg.Hierarchy, hhh.Threshold(r.VariantBytes(j), cfg.Phi))
			results[j].Jaccard.Observe(base.Jaccard(variant))
			results[j].Pairs++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if results[0].Jaccard == nil {
		return nil, fmt.Errorf("core: span produced no baseline windows")
	}
	return results, nil
}
