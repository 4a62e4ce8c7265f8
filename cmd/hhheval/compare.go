package main

import (
	"fmt"
	"io"
	"time"

	"hiddenhhh/internal/core"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/metrics"
)

// runCompare runs the evaluation Section 3 of the paper calls for:
// time-decaying (continuous) detection against window-based approaches
// in accuracy, including recall of the hidden HHHs, performance and
// resource utilisation.
func runCompare(args []string, stdout io.Writer) error {
	fs := newFlags("compare")
	var (
		in       = fs.String("in", "", "analyse a stored trace instead of synthesising")
		duration = fs.Duration("duration", 3*time.Minute, "synthetic trace duration")
		win      = fs.Duration("window", 10*time.Second, "window length / decay horizon")
		phi      = fs.Float64("phi", 0.05, "HHH threshold fraction")
		seed     = fs.Int64("seed", 1000, "synthetic scenario seed")
		sweep    = fs.Bool("sweep", false, "run the TDBF parameter sweep (E4c) instead")
		latency  = fs.Bool("latency", false, "run the detection-latency experiment (E5) instead")
	)
	fs.Parse(args)

	cfg := gen.Tier1Day(0, *duration)
	cfg.Seed = *seed
	t, err := loadOrSynthesise(*in, "day0", cfg)
	if err != nil {
		return err
	}

	if *sweep {
		return runSweep(stdout, t, *win, *phi)
	}
	if *latency {
		reports, bursts, err := core.DetectionLatency(t.provider, core.LatencyConfig{
			Window: *win,
			Phi:    *phi,
			Span:   t.span,
			Seed:   *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "E5 — time from burst start to first report (window/tau %v, phi %.0f%%)\n\n",
			*win, 100**phi)
		fmt.Fprint(stdout, core.RenderLatency(reports, len(bursts)))
		return nil
	}

	outcome, err := core.ContinuousComparison(t.provider, core.ComparisonConfig{
		Window: *win,
		Phi:    *phi,
		Span:   t.span,
		Seed:   uint64(*seed),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Section 3 — windowed vs time-decaying detection (window/tau %v, phi %.0f%%)\n\n",
		*win, 100**phi)
	fmt.Fprint(stdout, core.RenderComparison(outcome))
	return nil
}

// runSweep explores the continuous detector's accuracy/memory trade-off
// across decay constants and filter sizes (E4c).
func runSweep(stdout io.Writer, t input, win time.Duration, phi float64) error {
	fmt.Fprintf(stdout, "E4c — continuous detector sweep (reference window %v, phi %.0f%%)\n\n", win, 100*phi)
	tab := metrics.NewTable("tau", "cells/level", "recall", "hidden-recall", "precision", "state-KiB")
	for _, tauMul := range []float64{0.5, 1, 2} {
		tau := time.Duration(float64(win) * tauMul)
		for _, cells := range []int{1 << 12, 1 << 14, 1 << 16} {
			outcome, err := core.ContinuousComparison(t.provider, core.ComparisonConfig{
				Window:    win,
				Tau:       tau,
				Phi:       phi,
				Span:      t.span,
				TDBFCells: cells,
			})
			if err != nil {
				return err
			}
			for _, r := range outcome.Reports {
				if r.Name == "continuous-tdbf" {
					tab.AddRow(tau, cells, r.Recall, r.HiddenRecall, r.Precision,
						fmt.Sprintf("%.0f", float64(r.StateBytes)/1024))
				}
			}
		}
	}
	fmt.Fprint(stdout, tab.String())
	return nil
}
