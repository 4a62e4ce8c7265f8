// Command hhhbench is the repository's end-to-end benchmark: four
// workloads that drive the library from a generated trace to published,
// oracle-checked HHH reports. See README.md for the workloads, their
// fixed parameters and every metric.
//
//	bash hhhbench/run.sh --workload replay-windowed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced (half the seconds each)
// and prints the per-layer metrics, writing the recorded spans under
// the build directory. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any report
// outside its engine's bound against the exact oracle prints the first
// violation and makes "correct" false. The exit code is 0 whenever the
// result line is printed; a run that cannot build, set up or finish
// exits 1 without one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: replay-windowed, query-continuous, fleet-sliding, inline-hidden")
	seed := flag.Int64("seed", 1, "trace seed (default 1; seed 424242 is held out)")
	seconds := flag.Float64("seconds", 10, "wall time one run measures")
	traced := flag.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "hhhbench:", err)
		os.Exit(1)
	}
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errViolation marks a run whose reports broke an oracle bound.
var errViolation = errors.New("oracle violation")

func run(name string, seed int64, budget time.Duration, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir := os.Getenv("HHHBENCH_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	work := filepath.Join(dir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	host := hostFingerprint()
	fmt.Printf("# host %s\n# workload=%s seed=%d seconds=%g trace=%v\n", host, name, seed, budget.Seconds(), traced)

	res := result{Correct: true, Metrics: map[string]metric{}}
	put := func(n string, v float64, unit, detail string) {
		res.Metrics[n] = metric{Value: v, Unit: unit}
		fmt.Printf("%-28s %14.6g %-6s %s\n", n, v, unit, detail)
	}
	note := func(n string, v float64, unit, detail string) {
		fmt.Printf("%-28s %14.6g %-6s %s (not gated)\n", n, v, unit, detail)
	}
	measure := func(inst instance, budget time.Duration, tr *tracer) (*outcome, error) {
		debug.FreeOSMemory() // start every timed run from a collected heap
		out, err := inst.run(budget, tr)
		inst.close()
		if err != nil {
			return nil, err
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		return out, nil
	}

	if !traced {
		var setups []float64
		var inst instance
		for i := 0; i < setupRuns; i++ {
			if inst != nil {
				inst.close() // the set-ups share file names
			}
			// Each set-up starts from a returned heap and runs without
			// the collector, so its peak resident memory is the same on
			// every run instead of depending on when a collection fell.
			debug.FreeOSMemory()
			gc := debug.SetGCPercent(-1)
			t0 := time.Now()
			var err error
			inst, err = w.setup(seed, work)
			setups = append(setups, time.Since(t0).Seconds())
			debug.SetGCPercent(gc)
			if err != nil {
				return err
			}
		}
		out, err := measure(inst, budget, nil)
		if err != nil {
			return err
		}
		rss := maxRSSMB() // before the oracle pass, which is not the workload's
		vs, err := verify(out)
		if err != nil && !errors.Is(err, errViolation) {
			return err
		}
		res.Correct = err == nil
		rep := summarise(out.reportMs)
		put("setup_s", medianOf(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		put("pps", float64(out.packets)/out.wall.Seconds(), "1/s", fmt.Sprintf("%d packets in %.3f s", out.packets, out.wall.Seconds()))
		put("report_p50_ms", rep.P50, "ms", fmt.Sprintf("median, n=%d", rep.N))
		put("report_tail_ms", rep.Tail, "ms", fmt.Sprintf("%s, n=%d", rep.TailLabel, rep.N))
		put("recall", vs.recall, "ratio", "mean over the first lap's reports")
		put("precision", vs.precision, "ratio", "mean over the first lap's reports")
		put("max_rss_mb", rss, "MB", "peak resident memory through set-up and run")
		if len(out.lateMs) > 0 {
			late := summarise(out.lateMs)
			note("lateness_ms", late.Tail, "ms", fmt.Sprintf("%s of send minus due time, n=%d", late.TailLabel, late.N))
		}
		if out.hidden != nil {
			note("hidden_recall", vs.hiddenRecall, "ratio", fmt.Sprintf("of %d windowed-hidden HHHs", vs.hidden))
		}
		note("failed_share", float64(out.failed)/float64(out.attempted), "ratio", fmt.Sprintf("%d of %d", out.failed, out.attempted))
	} else {
		// Untraced first, for the tracing overhead; then traced.
		inst, err := w.setup(seed, work)
		if err != nil {
			return err
		}
		plain, err := measure(inst, budget/2, nil)
		if err != nil {
			return err
		}
		if inst, err = w.setup(seed, work); err != nil {
			return err
		}
		tr := newTracer()
		out, err := measure(inst, budget/2, tr)
		if err != nil {
			return err
		}
		for _, o := range []*outcome{plain, out} {
			if _, err := verify(o); err != nil {
				if !errors.Is(err, errViolation) {
					return err
				}
				res.Correct = false
			}
		}
		layers, err := perLayer(out, plain, tr)
		if err != nil {
			return err
		}
		for _, m := range perLayerMetrics {
			put(m.name, layers[m.name], m.unit, "")
		}
		for k, v := range out.layer {
			if _, ok := layers[k]; !ok {
				note(k, v, "count", "")
			}
		}
		spans := filepath.Join(dir, "spans")
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spans, fmt.Sprintf("%s-seed%d.tsv", name, seed))
		if err := tr.writeFile(path, host); err != nil {
			return err
		}
		fmt.Printf("# spans: %s (%d)\n", path, len(tr.spans))
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
