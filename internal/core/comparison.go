package core

import (
	"fmt"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/metrics"
	"hiddenhhh/internal/pipeline"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/window"
)

// ComparisonConfig parameterises the Section-3 evaluation: how well do
// windowed detectors and the proposed time-decaying continuous detector
// recover the HHHs a sliding window (the information-richest model)
// reveals — including the hidden ones — and at what performance and
// memory cost.
type ComparisonConfig struct {
	// Window is the disjoint window length and the sliding ground-truth
	// length. Default 10 s.
	Window time.Duration
	// Tau is the continuous detector's decay horizon. Defaults to
	// Window, the natural like-for-like setting; the E4c ablation sweeps
	// it independently.
	Tau time.Duration
	// Step is the sliding step defining ground truth. Default 1 s.
	Step time.Duration
	// Phi is the threshold fraction. Default 0.05.
	Phi float64
	// Span is the analysed trace duration.
	Span int64
	// Hierarchy is the prefix lattice the analysis runs over. Defaults
	// to the IPv4 byte ladder.
	Hierarchy addr.Hierarchy
	// Counters per level for the sketch engines (PerLevel, RHHH).
	// Default 512.
	Counters int
	// TDBFCells/TDBFHashes size the continuous detector's per-level
	// filters. Defaults 1<<16 and 4.
	TDBFCells  int
	TDBFHashes int
	// Seed drives the randomised detectors.
	Seed uint64
}

func (c *ComparisonConfig) setDefaults() {
	if c.Window == 0 {
		c.Window = 10 * time.Second
	}
	if c.Tau == 0 {
		c.Tau = c.Window
	}
	if c.Step == 0 {
		c.Step = time.Second
	}
	if c.Phi == 0 {
		c.Phi = 0.05
	}
	if c.Hierarchy == (addr.Hierarchy{}) {
		c.Hierarchy = addr.NewIPv4Hierarchy(addr.Byte)
	}
	if c.Counters == 0 {
		c.Counters = 512
	}
	if c.TDBFCells == 0 {
		c.TDBFCells = 1 << 16
	}
	if c.TDBFHashes == 0 {
		c.TDBFHashes = 4
	}
}

// DetectorReport scores one detector over the whole trace.
type DetectorReport struct {
	Name string
	// Reported is the number of distinct HHH prefixes the detector
	// produced across the trace.
	Reported int
	// Recall is the fraction of the sliding-window ground-truth set the
	// detector found; HiddenRecall restricts that to the hidden HHHs
	// (those no disjoint window reports) — the paper's motivating
	// information loss.
	Recall       float64
	HiddenRecall float64
	// Precision is the fraction of the detector's reports that are in
	// the ground-truth set.
	Precision float64
	// NsPerPacket is the measured per-packet processing cost of the
	// detector's pass, and StateBytes its steady-state memory footprint.
	NsPerPacket float64
	StateBytes  int
	Packets     int64
}

// ComparisonOutcome bundles the ground truth and every detector's report.
type ComparisonOutcome struct {
	GroundTruth   hhh.Set // sliding-window union S
	DisjointTruth hhh.Set // disjoint union D (exact per window)
	Hidden        hhh.Set // S − D
	Reports       []DetectorReport
}

// Score scores a detector's distinct reported prefixes against the
// ground-truth set and its hidden subset — the scoring rule every
// comparison table shares (the Section-3 evaluation here and the
// oracle-differential accuracy report in cmd/hhheval). The performance
// fields (NsPerPacket, StateBytes, Packets) are left for the caller.
func Score(name string, reported, truth, hidden hhh.Set) DetectorReport {
	inTruth := reported.Intersect(truth).Len()
	inHidden := reported.Intersect(hidden).Len()
	return DetectorReport{
		Name:         name,
		Reported:     reported.Len(),
		Recall:       ratio(float64(inTruth), float64(truth.Len())),
		HiddenRecall: ratio(float64(inHidden), float64(hidden.Len())),
		Precision:    ratio(float64(inTruth), float64(reported.Len())),
	}
}

// ContinuousComparison runs the Section-3 evaluation. Ground truth is the
// union of exact HHH sets over sliding positions; each detector is then
// driven over an identical replay of the trace and scored on the distinct
// prefixes it ever reported.
func ContinuousComparison(provider Provider, cfg ComparisonConfig) (*ComparisonOutcome, error) {
	cfg.setDefaults()
	out := &ComparisonOutcome{}

	// Pass 1: exact sliding ground truth, disjoint exact union, and the
	// sliding-exact reference row (timed).
	src, err := provider()
	if err != nil {
		return nil, err
	}
	sliding := hhh.NewSet()
	disjoint := hhh.NewSet()
	peakLeaves := 0
	start := time.Now()
	err = window.Slide(src, window.Config{
		Width: cfg.Window, Step: cfg.Step, End: cfg.Span, Hierarchy: cfg.Hierarchy,
	}, func(r *window.Result) error {
		set := hhh.Exact(r.Leaves, cfg.Hierarchy, hhh.Threshold(r.Bytes, cfg.Phi))
		sliding.UnionInPlace(set)
		if r.Start%int64(cfg.Window) == 0 {
			disjoint.UnionInPlace(set)
		}
		if r.Leaves.Len() > peakLeaves {
			peakLeaves = r.Leaves.Len()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	out.GroundTruth = sliding
	out.DisjointTruth = disjoint
	out.Hidden = sliding.Diff(disjoint)

	// Recount packets in span for per-packet costs.
	src, err = provider()
	if err != nil {
		return nil, err
	}
	var pkts int64
	if err := trace.ForEach(src, func(p *trace.Packet) error {
		if p.Ts >= 0 && p.Ts < cfg.Span {
			pkts++
		}
		return nil
	}); err != nil {
		return nil, err
	}

	score := func(name string, reported hhh.Set, nsPerPkt float64, stateBytes int) DetectorReport {
		r := Score(name, reported, out.GroundTruth, out.Hidden)
		r.NsPerPacket = nsPerPkt
		r.StateBytes = stateBytes
		r.Packets = pkts
		return r
	}
	nsPerPkt := func(d time.Duration) float64 {
		if pkts == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(pkts)
	}

	out.Reports = append(out.Reports,
		score("sliding-exact", sliding, nsPerPkt(elapsed), peakLeaves*16))

	// Streaming detectors, each driven over an identical clipped replay
	// through the inline executor. Windowed detectors report every
	// window's set at its close (the grid of whole windows inside the
	// span, aligned at 0); continuous ones report a prefix when it enters.
	windows := int64(window.Config{Width: cfg.Window, End: cfg.Span}.Count())
	run := func(name string, pc pipeline.Config) error {
		reported := hhh.NewSet()
		end := cfg.Span
		if pc.Mode == pipeline.ModeWindowed {
			end = windows * int64(cfg.Window)
			pc.OnWindow = func(_, _ int64, set hhh.Set) { reported.UnionInPlace(set) }
		} else {
			pc.OnEnter = func(p addr.Prefix, _ int64) { reported.Add(hhh.Item{Prefix: p}) }
		}
		det, err := pipeline.NewInline(pc)
		if err != nil {
			return err
		}
		src, err := provider()
		if err != nil {
			return err
		}
		start := time.Now()
		clipped := &trace.ClipSource{Src: src, From: 0, To: end}
		err = trace.ForEachBatch(clipped, 0, func(pkts []trace.Packet) error {
			det.ObserveBatch(pkts)
			return nil
		})
		if err != nil {
			return err
		}
		if pc.Mode == pipeline.ModeWindowed {
			det.Snapshot(end) // close the span's last windows
		}
		out.Reports = append(out.Reports,
			score(name, reported, nsPerPkt(time.Since(start)), det.SizeBytes()))
		return nil
	}
	windowed := func(k pipeline.Kind) pipeline.Config {
		return pipeline.Config{Mode: pipeline.ModeWindowed, Window: cfg.Window, Phi: cfg.Phi,
			Engine: k, Counters: cfg.Counters, Hierarchy: cfg.Hierarchy, Seed: cfg.Seed}
	}
	continuous := func(sampled bool) pipeline.Config {
		return pipeline.Config{Mode: pipeline.ModeContinuous, Window: cfg.Tau, Phi: cfg.Phi,
			Cells: cfg.TDBFCells, Hashes: cfg.TDBFHashes, Sampled: sampled,
			Hierarchy: cfg.Hierarchy, Seed: cfg.Seed}
	}
	for _, r := range []struct {
		name string
		cfg  pipeline.Config
	}{
		{"disjoint-exact", windowed(pipeline.KindExact)},
		{"disjoint-perlevel", windowed(pipeline.KindPerLevel)},
		{"disjoint-rhhh", windowed(pipeline.KindRHHH)},
		{"continuous-tdbf", continuous(false)},
		{"continuous-sampled", continuous(true)},
	} {
		if err := run(r.name, r.cfg); err != nil {
			return nil, err
		}
	}

	return out, nil
}

// RenderComparison formats the outcome as the Section-3 table.
func RenderComparison(o *ComparisonOutcome) string {
	t := metrics.NewTable("detector", "reported", "recall", "hidden-recall",
		"precision", "ns/pkt", "state-KiB")
	for _, r := range o.Reports {
		t.AddRow(r.Name, r.Reported, r.Recall, r.HiddenRecall, r.Precision,
			fmt.Sprintf("%.0f", r.NsPerPacket), fmt.Sprintf("%.0f", float64(r.StateBytes)/1024))
	}
	return fmt.Sprintf("ground truth: %d sliding HHHs, %d disjoint, %d hidden\n\n%s",
		o.GroundTruth.Len(), o.DisjointTruth.Len(), o.Hidden.Len(), t.String())
}
