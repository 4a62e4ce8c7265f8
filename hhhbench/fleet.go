package main

import (
	"fmt"
	"time"

	hhh "hiddenhhh"
)

const (
	fleetNodes = 3           // in-process ingest nodes
	sealEvery  = time.Second // trace time between seals: five rounds per window
)

// fleet is fleet-sliding: the trace split by source across three 1-shard
// sliding Memento pipelines that seal every sub-window into one
// Aggregator, driven in lock-step from the benchmark goroutine.
type fleet struct {
	l     laps
	nodes []*node
	agg   *hhh.Aggregator
}

// node is one ingest node: its source partition of the lap, its
// pipeline, and the frame its last Snapshot sealed.
type node struct {
	name   string
	base   []hhh.Packet
	det    hhh.ShardedDetector
	sealed chan hhh.SealedSummary // one seal per Snapshot, taken before the next
}

// partition keeps the packets of node index of count, split by source
// address exactly as hhhserve -role ingest splits its replay.
func partition(pkts []hhh.Packet, index, count int) []hhh.Packet {
	var out []hhh.Packet
	for _, p := range pkts {
		if int((p.Src.Lo()^p.Src.Hi())%uint64(count)) == index {
			out = append(out, p)
		}
	}
	return out
}

func setupFleet(seed int64, _ string) (instance, error) {
	l, err := newLaps(hitAndRun(seed))
	if err != nil {
		return nil, err
	}
	f := &fleet{l: l}
	for i := 0; i < fleetNodes; i++ {
		n := &node{name: fmt.Sprintf("node%d", i), base: partition(l.base, i, fleetNodes),
			sealed: make(chan hhh.SealedSummary, 1)}
		n.det, err = hhh.NewShardedDetector(hhh.ShardedConfig{
			Mode: hhh.ModeSliding, Shards: 1, Window: window, Phi: phi,
			Engine: hhh.EngineMemento, Counters: counters, Frames: frames,
			Seed: engineSeed, RingDepth: ringDepth,
			OnSeal: func(s hhh.SealedSummary) { n.sealed <- s },
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	f.agg, err = hhh.NewAggregator(hhh.AggregatorConfig{Expected: fleetNodes, Phi: phi})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		n.det.Close()
	}
	if f.agg != nil {
		f.agg.Close()
	}
}

func (f *fleet) run(budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome(f.l)
	g := &gate{name: "3-node sliding Memento fleet", model: sliding, bounds: mementoBounds}
	out.gates = []*gate{g}
	out.hidden = g
	perLap := f.l.period / int64(sealEvery)
	buf := make([]hhh.Packet, 0, 4096)
	var frames, frameBytes, seq int64
	var fills []float64

	start := time.Now()
	for k := int64(1); k <= perLap || time.Since(start) < budget; k++ {
		t := k * int64(sealEvery) // this round seals at t-1, after every packet before t
		off := (k - 1) / perLap * f.l.period
		rid := tr.begin("fleet.round", noSpan, k)
		var r0 time.Time
		ok := true
		for i, n := range f.nodes {
			buf = append(buf[:0], between(n.base, t-int64(sealEvery)-off, t-off)...)
			shift(buf, off)
			id := tr.begin("pipeline.observe", rid, k)
			err := n.det.TryObserveBatch(buf)
			tr.end(id)
			out.packets += int64(len(buf))
			if err != nil {
				out.failed += int64(len(buf))
			}
			if tr != nil {
				fills = append(fills, sampleQueue(n.det.Stats()))
			}
			if i == 0 {
				r0 = time.Now()
			}
			id = tr.begin("pipeline.snapshot", rid, k)
			n.det.Snapshot(t - 1)
			tr.end(id)
			var s hhh.SealedSummary
			select {
			case s = <-n.sealed: // OnSeal runs before Snapshot returns
			default:
				ok = false
				continue
			}
			frames++
			frameBytes += int64(len(s.Frame))
			id = tr.begin("pipeline.agg_ingest", rid, k)
			err = f.agg.Ingest(n.name, s)
			tr.end(id)
			if err != nil {
				ok = false
			}
		}
		rep := f.agg.Report()
		out.reportMs = append(out.reportMs, ms(time.Since(r0)))
		tr.end(rid)
		if !ok || rep.Seq != seq+fleetNodes || rep.End != t-1 || rep.Nodes != fleetNodes || rep.Degraded {
			out.failed++
		}
		seq = rep.Seq
		g.add(t-1, rep.Set, rep.Bytes, 0)
	}
	out.wall = time.Since(start)
	out.attempted = out.packets + frames + int64(len(g.reports))

	st := f.agg.Stats()
	out.failed += st.Rejected + st.LateFrames
	out.layer["wire.frames"] = float64(frames)
	out.layer["wire.frame_bytes"] = float64(frameBytes) / float64(max(frames, 1))
	out.layer["pipeline.agg_merges"] = float64(st.Merges)
	out.layer["pipeline.agg_rejected"] = float64(st.Rejected)
	out.layer["pipeline.agg_late"] = float64(st.LateFrames)
	if len(fills) > 0 {
		out.layer["pipeline.queue_fill"] = mean(fills)
	}
	dets := make([]hhh.ShardedDetector, len(f.nodes))
	for i, n := range f.nodes {
		dets[i] = n.det
	}
	pipelineLayer(out, dets...)
	return out, nil
}
