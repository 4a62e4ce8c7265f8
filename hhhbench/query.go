package main

import (
	"time"

	hhh "hiddenhhh"
)

// query-continuous offers packets and Snapshot queries on a fixed
// schedule, about half of what a 2-shard continuous pipeline sustains on
// the 2-vCPU host the benchmark was tuned on.
const (
	offeredPPS = 50000 // packets per second
	queryRate  = 16    // Snapshot queries per second
	openBatch  = 500   // packets per ingest call
)

// query is query-continuous: an open loop of ingest batches and
// Snapshot queries into a 2-shard continuous (TDBF) pipeline.
type query struct {
	l   laps
	det hhh.ShardedDetector
}

func setupQuery(seed int64, _ string) (instance, error) {
	l, err := newLaps(hitAndRun(seed))
	if err != nil {
		return nil, err
	}
	det, err := hhh.NewShardedDetector(hhh.ShardedConfig{
		Mode: hhh.ModeContinuous, Shards: shards, Window: window, Phi: phi,
		Seed: engineSeed, RingDepth: ringDepth,
	})
	if err != nil {
		return nil, err
	}
	return &query{l: l, det: det}, nil
}

func (q *query) close() { q.det.Close() }

func (q *query) run(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome(q.l)
	// Reports inside the detector's one-horizon admission warm-up are
	// not bound-checked, as in the oracle harness.
	g := &gate{name: "2-shard continuous", model: decayed, bounds: tdbfBounds,
		warmup: q.l.base[0].Ts + int64(window)}
	out.gates = []*gate{g}
	out.hidden = g
	ol := &openLoop{clk: wallClock{start: time.Now()}}
	batches := &periodic{rate: offeredPPS / openBatch}
	queries := &periodic{rate: queryRate}
	buf := make([]hhh.Packet, openBatch)
	var offered, lastTs int64
	var fills []float64

	ask := func(due time.Duration) {
		id := tr.begin("pipeline.snapshot", noSpan, int64(len(g.reports)))
		set := q.det.Snapshot(lastTs)
		tr.end(id)
		out.reportMs = append(out.reportMs, ol.since(due))
		out.wall = ol.clk.now()
		g.add(lastTs, set, q.det.ReportMass(lastTs), offered)
	}
	for {
		which, due := nextOf(batches, queries)
		if due >= budget {
			break
		}
		id := tr.begin("openloop.wait", noSpan, -1)
		ol.begin(due)
		tr.end(id)
		if which == 1 {
			ask(due)
			continue
		}
		q.l.fill(buf, offered)
		id = tr.begin("pipeline.observe", noSpan, -1)
		err := q.det.TryObserveBatch(buf)
		tr.end(id)
		offered += int64(len(buf))
		lastTs = buf[len(buf)-1].Ts
		if err != nil {
			out.failed += int64(len(buf))
		}
		if tr != nil {
			fills = append(fills, sampleQueue(q.det.Stats()))
		}
	}
	// A final query at the end of the schedule reports on every packet
	// offered.
	id := tr.begin("openloop.wait", noSpan, -1)
	ol.begin(budget)
	tr.end(id)
	ask(budget)

	out.packets = offered
	out.lateMs = ol.late
	out.attempted = offered + int64(len(g.reports))
	if len(fills) > 0 {
		out.layer["pipeline.queue_fill"] = mean(fills)
	}
	pipelineLayer(out, q.det)
	return out, nil
}
