package main

import (
	"fmt"
	"sort"
	"time"

	hhh "hiddenhhh"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/oracle"
)

// Fixed workload parameters. README.md lists them per workload.
const (
	lapSpan    = 60 * time.Second // trace time synthesised per seed; runs replay it in laps
	window     = 5 * time.Second  // window, sliding span and decay horizon tau
	phi        = 0.05             // HHH threshold fraction
	counters   = 512              // Space-Saving / Memento counters per level
	frames     = 8                // sliding frames per window
	shards     = 2                // pipeline shards (hhhserve's default on 2 CPUs)
	ringDepth  = 64               // per-shard ring capacity in batches
	readBatch  = 1024             // packets per decode + ingest call
	engineSeed = 9                // level-sampling and filter-hash seed
	setupRuns  = 5                // set-ups per run; setup_s is their median
)

// Error bounds per engine, as documented in README.md's Accuracy
// section and pinned by cmd/hhheval's defaults: Space-Saving overcounts
// by at most N/counters per level (sharding and fleet merges telescope
// back to it), Memento adds its ~15% level-sampling envelope, and the
// continuous detector's TDBF collisions get a 5% envelope.
var (
	exactBounds    = oracle.Bounds{}
	perLevelBounds = oracle.Bounds{Epsilon: 1.0 / counters}
	mementoBounds  = oracle.Bounds{Epsilon: 1.0 / counters, Slack: 0.15, AllowUnder: true}
	tdbfBounds     = oracle.Bounds{Slack: 0.05}
)

// instance is one set-up workload: trace, files and detectors, ready to
// run once.
type instance interface {
	// run drives the workload for budget of wall time. A non-nil tracer
	// records a span around every call into the program.
	run(budget time.Duration, tr *tracer) (*outcome, error)
	close()
}

// workload names one benchmark workload and builds its instances.
type workload struct {
	name  string
	setup func(seed int64, dir string) (instance, error)
}

var workloads = []workload{
	{name: "replay-windowed", setup: setupReplay},
	{name: "query-continuous", setup: setupQuery},
	{name: "fleet-sliding", setup: setupFleet},
	{name: "inline-hidden", setup: setupInline},
}

// outcome is what one run measured, before the oracle pass.
type outcome struct {
	packets   int64
	wall      time.Duration // first packet read to last report published
	reportMs  []float64     // per report: time until it was readable
	lateMs    []float64     // open loop only: per call, start minus due time
	attempted int64         // packets offered plus reports requested
	failed    int64         // packets shed or refused plus reports degraded, rejected or late
	gates     []*gate       // gates[0] gives recall and precision
	hidden    *gate         // the gate whose reports should reveal windowed-hidden HHHs; nil if none
	layer     map[string]float64
	l         laps // the replayed trace, for the oracle pass and calibration
}

func newOutcome(l laps) *outcome {
	return &outcome{layer: map[string]float64{}, l: l}
}

// laps replays one generated trace lap after lap, each lap shifted
// forward in time by period, as hhhserve -loop does.
type laps struct {
	base   []hhh.Packet
	period int64
}

func newLaps(cfg hhh.TraceConfig) (laps, error) {
	pkts, err := hhh.GenerateTrace(cfg)
	if err != nil {
		return laps{}, fmt.Errorf("generate trace: %w", err)
	}
	if len(pkts) == 0 || pkts[len(pkts)-1].Ts >= int64(lapSpan) || pkts[0].Ts < 0 {
		return laps{}, fmt.Errorf("generated trace does not fit one %v lap", lapSpan)
	}
	return laps{base: pkts, period: int64(lapSpan)}, nil
}

// ts returns the timestamp of packet g of the replayed stream.
func (l laps) ts(g int64) int64 {
	n := int64(len(l.base))
	return l.base[g%n].Ts + g/n*l.period
}

// fill copies packets g, g+1, ... of the replayed stream into dst.
func (l laps) fill(dst []hhh.Packet, g int64) {
	n := int64(len(l.base))
	for len(dst) > 0 {
		lap, i := g/n, g%n
		c := copy(dst, l.base[i:])
		shift(dst[:c], lap*l.period)
		dst, g = dst[c:], g+int64(c)
	}
}

// between returns the packets with lo <= Ts < hi.
func between(pkts []hhh.Packet, lo, hi int64) []hhh.Packet {
	i := sort.Search(len(pkts), func(k int) bool { return pkts[k].Ts >= lo })
	j := sort.Search(len(pkts), func(k int) bool { return pkts[k].Ts >= hi })
	return pkts[i:j]
}

func shift(pkts []hhh.Packet, off int64) {
	for i := range pkts {
		pkts[i].Ts += off
	}
}

// twoLaps returns the first two laps back to back: the oracle's input.
// Any report from lap k >= 1 folds into the second lap (see fold), whose
// history includes the lap before it, as the live detectors' does.
func (l laps) twoLaps() []hhh.Packet {
	out := make([]hhh.Packet, 2*len(l.base))
	l.fill(out, 0)
	return out
}

// fold maps trace time t onto the same lap position within twoLaps.
func (l laps) fold(t int64) int64 {
	if k := t / l.period; k > 1 {
		return t - (k-1)*l.period
	}
	return t
}

// hitAndRun is the boundary-straddling pulse mix that hides HHHs from
// disjoint windows.
func hitAndRun(seed int64) hhh.TraceConfig { return gen.HitAndRunScenario(lapSpan, seed) }

// sampleQueue returns the pipeline's mean ring fill: queued batches over
// ring capacity, across shards.
func sampleQueue(st hhh.PipelineStats) float64 {
	var q int
	for _, d := range st.QueueDepth {
		q += d
	}
	return float64(q) / float64(len(st.QueueDepth)*ringDepth)
}

// pipelineLayer records the end-of-run counters of sharded detectors.
func pipelineLayer(out *outcome, dets ...hhh.ShardedDetector) {
	var shardPkts []int64
	for _, d := range dets {
		st := d.Stats()
		out.layer["pipeline.windows"] += float64(st.Windows)
		out.layer["pipeline.state_mb"] += float64(st.SizeBytes) / 1e6
		out.layer["pipeline.dropped_packets"] += float64(st.DroppedPackets)
		out.layer["pipeline.degraded_merges"] += float64(st.DegradedWindows)
		out.failed += st.DroppedPackets + st.DegradedWindows
		shardPkts = append(shardPkts, st.ShardPackets...)
	}
	var sum, hi int64
	for _, p := range shardPkts {
		sum += p
		hi = max(hi, p)
	}
	if sum > 0 {
		out.layer["pipeline.shard_skew"] = float64(hi) * float64(len(shardPkts)) / float64(sum)
	}
}
