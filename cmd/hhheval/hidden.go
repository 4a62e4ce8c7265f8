package main

import (
	"fmt"
	"io"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/core"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/metrics"
)

// runHidden reproduces Figure 2: the percentage of hierarchical heavy
// hitters that disjoint windows fail to report compared to a sliding
// window of the same length, across window sizes and thresholds, over
// the four synthetic "day" scenarios standing in for the paper's CAIDA
// trace days.
func runHidden(args []string, stdout io.Writer) error {
	fs := newFlags("hidden")
	var (
		in       = fs.String("in", "", "analyse a stored trace instead of synthesising")
		duration = fs.Duration("duration", 4*time.Minute, "per-day synthetic trace duration")
		days     = fs.Int("days", 4, "number of synthetic days (1-4)")
		step     = fs.Duration("step", time.Second, "sliding step")
		steps    = fs.Bool("steps", false, "run the step-size ablation (E4a) instead")
		granStr  = fs.String("granularity", "byte", "hierarchy granularity: bit, nibble, byte, or a scan -hierarchy name (ipv4-*, ipv6-*)")
		windows  = fs.String("windows", "5s,10s,20s", "comma-separated window sizes")
		phis     = fs.String("phis", "0.01,0.05,0.10", "comma-separated threshold fractions")
	)
	fs.Parse(args)

	h, err := hierarchyOf(*granStr)
	if err != nil {
		return err
	}
	ws, err := parseDurations(*windows)
	if err != nil {
		return err
	}
	ps, err := parseFloats(*phis)
	if err != nil {
		return err
	}

	n := *days
	if *in != "" {
		n = 1
	} else if n < 1 || n > 4 {
		return fmt.Errorf("-days must be 1..4")
	}
	var traces []input
	for d := 0; d < n; d++ {
		t, err := loadOrSynthesise(*in, fmt.Sprintf("day%d", d), gen.Tier1Day(d, *duration))
		if err != nil {
			return err
		}
		traces = append(traces, t)
	}

	if *steps {
		return runStepAblation(stdout, traces[0], h)
	}

	fmt.Fprintln(stdout, "Figure 2 — hidden HHHs: disjoint windows vs sliding window (step", *step, ")")
	fmt.Fprintln(stdout)
	summary := metrics.NewTable("day", "window", "phi%", "sliding", "disjoint", "hidden", "hidden%")
	type cell struct {
		sum float64
		n   int
	}
	agg := map[string]*cell{}
	for _, dt := range traces {
		results, err := core.HiddenHHH(dt.provider, core.HiddenHHHConfig{
			Windows:   ws,
			Step:      *step,
			Phis:      ps,
			Span:      dt.span,
			Hierarchy: h,
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			summary.AddRow(dt.name, r.Window, 100*r.Phi, r.SlidingDistinct,
				r.DisjointDistinct, r.HiddenDistinct, r.HiddenPct)
			k := fmt.Sprintf("%v/%.0f%%", r.Window, 100*r.Phi)
			if agg[k] == nil {
				agg[k] = &cell{}
			}
			agg[k].sum += r.HiddenPct
			agg[k].n++
		}
	}
	fmt.Fprint(stdout, summary.String())
	if len(traces) > 1 {
		fmt.Fprintln(stdout, "\nmean hidden% across days:")
		mean := metrics.NewTable("window/phi", "hidden%")
		for _, w := range ws {
			for _, p := range ps {
				k := fmt.Sprintf("%v/%.0f%%", w, 100*p)
				if c := agg[k]; c != nil {
					mean.AddRow(k, c.sum/float64(c.n))
				}
			}
		}
		fmt.Fprint(stdout, mean.String())
	}
	return nil
}

func runStepAblation(stdout io.Writer, t input, h addr.Hierarchy) error {
	fmt.Fprintln(stdout, "E4a — hidden% vs sliding step (window 10s, phi 5%)")
	tab := metrics.NewTable("step", "sliding", "disjoint", "hidden", "hidden%")
	for _, step := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second} {
		results, err := core.HiddenHHH(t.provider, core.HiddenHHHConfig{
			Windows:   []time.Duration{10 * time.Second},
			Step:      step,
			Phis:      []float64{0.05},
			Span:      t.span,
			Hierarchy: h,
		})
		if err != nil {
			return err
		}
		r := results[0]
		tab.AddRow(step, r.SlidingDistinct, r.DisjointDistinct, r.HiddenDistinct, r.HiddenPct)
	}
	fmt.Fprint(stdout, tab.String())
	return nil
}
