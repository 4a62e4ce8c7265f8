package main

import (
	"fmt"
	"io"
	"time"

	"hiddenhhh/internal/core"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/metrics"
)

// runSense reproduces Figure 3: per-window Jaccard similarity between
// the HHH sets of a 10 s baseline window and windows 10–100 ms shorter,
// at a 5% byte threshold (the paper's trace is 20 minutes long).
func runSense(args []string, stdout io.Writer) error {
	fs := newFlags("sense")
	var (
		in       = fs.String("in", "", "analyse a stored trace instead of synthesising")
		duration = fs.Duration("duration", 5*time.Minute, "synthetic trace duration (paper: 20m)")
		baseline = fs.Duration("baseline", 10*time.Second, "baseline window")
		phi      = fs.Float64("phi", 0.05, "HHH threshold fraction")
		seed     = fs.Int64("seed", 1000, "synthetic scenario seed")
		cdf      = fs.Bool("cdf", false, "print full Jaccard CDFs per trim")
		tails    = fs.Bool("tails", false, "run the same-start tail-trim ablation (E4d) instead")
	)
	fs.Parse(args)

	cfg := gen.Tier1Day(0, *duration)
	cfg.Seed = *seed
	t, err := loadOrSynthesise(*in, "day0", cfg)
	if err != nil {
		return err
	}

	scfg := core.SensitivityConfig{
		Baseline: *baseline,
		Phi:      *phi,
		Span:     t.span,
	}
	var results []core.SensitivityResult
	if *tails {
		results, err = core.TailTrimSensitivity(t.provider, scfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "E4d — same-start tail-trim sensitivity (baseline %v, phi %.0f%%)\n\n",
			*baseline, 100**phi)
	} else {
		results, err = core.WindowSensitivity(t.provider, scfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 3 — HHH similarity of W vs W-δ window tilings (baseline %v, phi %.0f%%)\n\n",
			*baseline, 100**phi)
	}
	fmt.Fprint(stdout, core.RenderSensitivity(results))

	if *cdf {
		fmt.Fprintln(stdout, "\nJaccard CDFs (P[J <= x]):")
		header := []string{"x"}
		for _, r := range results {
			header = append(header, r.Trim.String())
		}
		tab := metrics.NewTable(header...)
		for x := 0.0; x <= 1.0001; x += 0.05 {
			row := []any{fmt.Sprintf("%.2f", x)}
			for _, r := range results {
				row = append(row, fmt.Sprintf("%.3f", r.Jaccard.CDFAt(x)))
			}
			tab.AddRow(row...)
		}
		fmt.Fprint(stdout, tab.String())
	}
	return nil
}
