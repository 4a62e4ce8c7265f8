package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// perLayerMetrics are the traced run's metrics, in print order. Each
// workload prints all of them; a layer the workload does not reach
// reads 0 (its time per workload packet, its count).
var perLayerMetrics = []struct{ name, unit string }{
	{"pcap.decode_ns", "ns"},
	{"trace.decode_ns", "ns"},
	{"pipeline.observe_ns", "ns"},
	{"pipeline.observe_share", "ratio"},
	{"pipeline.queue_fill", "ratio"},
	{"pipeline.shard_skew", "ratio"},
	{"pipeline.windows", "count"},
	{"pipeline.state_mb", "MB"},
	{"pipeline.dropped_packets", "count"},
	{"pipeline.degraded_merges", "count"},
	{"pipeline.snapshot_p50_ms", "ms"},
	{"pipeline.snapshot_tail_ms", "ms"},
	{"hhh.perlevel_ns", "ns"},
	{"hhh.exact_ns", "ns"},
	{"swhh.memento_ns", "ns"},
	{"continuous.update_ns", "ns"},
	{"hhh.query_us", "us"},
	{"swhh.query_us", "us"},
	{"continuous.query_ms", "ms"},
	{"wire.frames", "count"},
	{"wire.frame_bytes", "bytes"},
	{"pipeline.agg_ingest_p50_ms", "ms"},
	{"pipeline.agg_ingest_tail_ms", "ms"},
	{"pipeline.agg_merges", "count"},
	{"pipeline.agg_rejected", "count"},
	{"pipeline.agg_late", "count"},
	{"ledger.covered_share", "ratio"},
	{"ledger.tracing_overhead", "ratio"},
}

// perLayer derives the per-layer metrics of a traced run from its spans,
// its counters and the engine calibration; plain is the untraced run
// that preceded it, for the tracing overhead.
func perLayer(out, plain *outcome, tr *tracer) (map[string]float64, error) {
	lg := tr.ledger()
	m := map[string]float64{}
	for k, v := range out.layer {
		m[k] = v
	}
	pkts := float64(out.packets)
	perPkt := func(name string) float64 { return float64(lg.self[name]) / pkts }
	m["pcap.decode_ns"] = perPkt("pcap.decode")
	m["trace.decode_ns"] = perPkt("trace.decode")
	m["pipeline.observe_ns"] = perPkt("pipeline.observe")
	m["pipeline.observe_share"] = float64(lg.self["pipeline.observe"]) / float64(out.wall)
	snap := summarise(lg.durs["pipeline.snapshot"])
	m["pipeline.snapshot_p50_ms"], m["pipeline.snapshot_tail_ms"] = snap.P50, snap.Tail
	agg := summarise(lg.durs["pipeline.agg_ingest"])
	m["pipeline.agg_ingest_p50_ms"], m["pipeline.agg_ingest_tail_ms"] = agg.P50, agg.Tail

	// inline-hidden runs the root exact and Memento detectors itself;
	// every other engine number comes from the calibration.
	skip := map[string]bool{}
	if _, ok := lg.self["hhh.exact"]; ok {
		m["hhh.exact_ns"] = perPkt("hhh.exact")
		m["swhh.memento_ns"] = perPkt("swhh.memento")
		m["hhh.query_us"] = mean(lg.durs["hhh.query"]) * 1e3
		m["swhh.query_us"] = mean(lg.durs["swhh.query"]) * 1e3
		skip["hhh.exact_ns"], skip["swhh.memento_ns"] = true, true
	}
	cal, err := calibrate(out.l.base, skip)
	if err != nil {
		return nil, err
	}
	for k, v := range cal {
		m[k] = v
	}
	m["ledger.covered_share"] = float64(lg.covered) / float64(out.wall)
	tracedPPS := pkts / out.wall.Seconds()
	plainPPS := float64(plain.packets) / plain.wall.Seconds()
	m["ledger.tracing_overhead"] = plainPPS/tracedPPS - 1
	return m, nil
}

// quality is the oracle pass over one run.
type quality struct {
	recall, precision float64 // of the primary gate
	hiddenRecall      float64
	hidden            int
}

// verify runs every gate of a run. The first violation is printed and
// turns into errViolation.
func verify(out *outcome) (quality, error) {
	var q quality
	var err error
	for i, g := range out.gates {
		v := g.verify(out.l)
		if i == 0 {
			q.recall, q.precision = v.recall, v.precision
		}
		if g == out.hidden {
			q.hiddenRecall, q.hidden = hiddenRecall(v, out.l)
		}
		if v.violation != "" && err == nil {
			fmt.Println("violation:", v.violation)
			fmt.Fprintln(os.Stderr, "hhhbench: violation:", v.violation)
			err = errViolation
		}
	}
	return q, err
}

// hostFingerprint names what the numbers were measured on; numbers
// compare only between runs with the same fingerprint (revision aside).
func hostFingerprint() string {
	rev := os.Getenv("HHHBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s rev=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), rev)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
