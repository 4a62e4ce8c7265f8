package main

import (
	"time"

	hhh "hiddenhhh"
)

// calibSpan is how much of the first lap the engine calibration replays.
const calibSpan = 10 * time.Second

// engineProbe is one root-package detector timed by calibrate.
type engineProbe struct {
	ingest, query string // per-layer metric names; query may be empty
	queryUnit     time.Duration
	newDet        func() (hhh.Detector, error)
	slidingQuery  bool // query at q-1, covering the packets before q
}

var probes = []engineProbe{
	{ingest: "hhh.perlevel_ns", newDet: func() (hhh.Detector, error) {
		return hhh.NewWindowedDetector(hhh.WindowedConfig{Window: window, Phi: phi, Engine: hhh.EnginePerLevel, Counters: counters})
	}},
	{ingest: "hhh.exact_ns", query: "hhh.query_us", queryUnit: time.Microsecond, newDet: func() (hhh.Detector, error) {
		return hhh.NewWindowedDetector(hhh.WindowedConfig{Window: window, Phi: phi, Engine: hhh.EngineExact})
	}},
	{ingest: "swhh.memento_ns", query: "swhh.query_us", queryUnit: time.Microsecond, slidingQuery: true, newDet: func() (hhh.Detector, error) {
		return hhh.NewSlidingDetector(hhh.SlidingConfig{Window: window, Phi: phi, Engine: hhh.EngineMemento,
			Frames: frames, Counters: counters, Seed: engineSeed})
	}},
	{ingest: "continuous.update_ns", query: "continuous.query_ms", queryUnit: time.Millisecond, newDet: func() (hhh.Detector, error) {
		return hhh.NewContinuousDetector(hhh.ContinuousConfig{Horizon: window, Phi: phi, Seed: engineSeed})
	}},
}

// calibrate times each engine on the root package's single-goroutine
// detector over the first calibSpan of the workload's trace, fed in
// batches and queried every trace second as inline-hidden does: ns per
// packet inside ObserveBatch and the mean Snapshot time (a windowed
// detector does its query work in the one Snapshot per window that
// closes it, so a median would miss it). Metrics in skip come from the
// workload's own spans instead.
func calibrate(base []hhh.Packet, skip map[string]bool) (map[string]float64, error) {
	pkts := between(base, 0, int64(calibSpan))
	out := map[string]float64{}
	for _, p := range probes {
		if skip[p.ingest] {
			continue
		}
		det, err := p.newDet()
		if err != nil {
			return nil, err
		}
		var busy time.Duration
		var queries []float64
		for q := int64(queryEvery); q <= int64(calibSpan); q += int64(queryEvery) {
			sec := between(pkts, q-int64(queryEvery), q)
			for i := 0; i < len(sec); i += readBatch {
				b := sec[i:min(i+readBatch, len(sec))]
				t0 := time.Now()
				det.ObserveBatch(b)
				busy += time.Since(t0)
			}
			at := q
			if p.slidingQuery {
				at--
			}
			t0 := time.Now()
			det.Snapshot(at)
			queries = append(queries, float64(time.Since(t0))/float64(p.queryUnit))
		}
		out[p.ingest] = float64(busy) / float64(len(pkts))
		if p.query != "" {
			out[p.query] = mean(queries)
		}
	}
	return out, nil
}
