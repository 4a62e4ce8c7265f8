package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/pipeline"
	"hiddenhhh/internal/window"
)

// scanKinds maps the windowed -engine names to pipeline engines.
var scanKinds = map[string]pipeline.Kind{
	"exact":    pipeline.KindExact,
	"perlevel": pipeline.KindPerLevel,
	"rhhh":     pipeline.KindRHHH,
}

// runScan runs hierarchical-heavy-hitter detection over a stored trace
// and prints the per-window reports. -hierarchy selects the prefix
// lattice and with it the address family scanned; the other family's
// packets are ignored.
func runScan(args []string, stdout io.Writer) error {
	fs := newFlags("scan")
	var (
		in       = fs.String("in", "", "input trace (.hhht or .pcap; required)")
		win      = fs.Duration("window", 10*time.Second, "window length / decay horizon")
		phi      = fs.Float64("phi", 0.05, "HHH threshold fraction of window bytes")
		engine   = fs.String("engine", "exact", "exact, perlevel, rhhh or continuous")
		counters = fs.Int("counters", 512, "counters per level (sketch engines)")
		hierStr  = fs.String("hierarchy", "ipv4-byte", "prefix lattice: ipv4-byte, ipv4-nibble, ipv4-bit, ipv6-hextet, ipv6-nibble")
		seed     = fs.Uint64("seed", 1, "seed for randomised engines")
		verbose  = fs.Bool("v", false, "print every window even when empty")
	)
	fs.Parse(args)
	if *in == "" {
		return errors.New("scan: -in is required")
	}

	pkts, err := loadTrace(*in)
	if err != nil {
		return err
	}
	h, err := hierarchyOf(*hierStr)
	if err != nil {
		return err
	}
	span := pkts[len(pkts)-1].Ts + 1

	printSet := func(start, end int64, set hhh.Set) {
		if set.Len() == 0 && !*verbose {
			return
		}
		fmt.Fprintf(stdout, "window [%v, %v): %d HHHs\n",
			time.Duration(start).Round(time.Millisecond),
			time.Duration(end).Round(time.Millisecond), set.Len())
		for _, it := range set.Items() {
			fmt.Fprintf(stdout, "  %v\n", it)
		}
	}

	if *engine == "continuous" {
		det, err := pipeline.NewInline(pipeline.Config{
			Mode:      pipeline.ModeContinuous,
			Window:    *win,
			Phi:       *phi,
			Hierarchy: h,
			Seed:      *seed,
			OnEnter: func(p addr.Prefix, at int64) {
				fmt.Fprintf(stdout, "%v ENTER %v\n", time.Duration(at).Round(time.Millisecond), p)
			},
			OnExit: func(p addr.Prefix, at int64) {
				fmt.Fprintf(stdout, "%v EXIT  %v\n", time.Duration(at).Round(time.Millisecond), p)
			},
		})
		if err != nil {
			return err
		}
		det.ObserveBatch(pkts)
		fmt.Fprintln(stdout, "final active set:")
		printSet(0, span, det.Snapshot(span))
		return nil
	}

	kind, ok := scanKinds[*engine]
	if !ok {
		return fmt.Errorf("unknown engine %q", *engine)
	}
	// Whole windows of the trace span, on the grid from 0.
	w := int64(*win)
	end := int64(window.Config{Width: *win, End: span}.Count()) * w
	if end == 0 {
		return fmt.Errorf("trace span %v is shorter than one window", time.Duration(span))
	}
	det, err := pipeline.NewInline(pipeline.Config{
		Window: *win, Phi: *phi, Engine: kind, Counters: *counters,
		Hierarchy: h, Seed: *seed, OnWindow: printSet,
	})
	if err != nil {
		return err
	}
	// The executor's window grid starts at the first packet's window;
	// the windows before it are empty.
	lo := sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts >= 0 })
	hi := sort.Search(len(pkts), func(i int) bool { return pkts[i].Ts >= end })
	first := end
	if lo < hi {
		first = pkts[lo].Ts / w * w
	}
	for s := int64(0); s < first; s += w {
		printSet(s, s+w, hhh.NewSet())
	}
	det.ObserveBatch(pkts[lo:hi])
	det.Snapshot(end)
	return nil
}
