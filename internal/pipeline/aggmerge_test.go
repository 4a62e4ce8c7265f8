package pipeline

import (
	"sort"
	"testing"
	"time"

	"hiddenhhh/internal/continuous"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/wire"
)

// refMerge is the aggregator's merge rule for every mergeable kind,
// written out per kind from wire.Decode and the engines' own
// Merge/Advance/Query: windowed engines sum and threshold at phi of the
// merged window volume, sliding engines advance every frame to at
// before a frame-by-frame merge, and continuous detectors threshold at
// the phi sealed inside them.
func refMerge(t *testing.T, frames [][]byte, phi float64, at int64) (hhh.Set, int64) {
	t.Helper()
	var acc any
	for _, f := range frames {
		v, err := wire.Decode(f)
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		switch d := v.(type) {
		case wire.ExactSummary:
			if acc == nil {
				acc = d
			} else {
				acc.(wire.ExactSummary).Leaves.AddAll(d.Leaves)
			}
		case *hhh.PerLevel:
			if acc == nil {
				acc = d
			} else {
				acc.(*hhh.PerLevel).Merge(d)
			}
		case *hhh.RHHH:
			if acc == nil {
				acc = d
			} else {
				acc.(*hhh.RHHH).Merge(d)
			}
		case *swhh.SlidingHHH:
			d.Advance(at)
			if acc == nil {
				acc = d
			} else {
				acc.(*swhh.SlidingHHH).Merge(d)
			}
		case *swhh.MementoHHH:
			d.Advance(at)
			if acc == nil {
				acc = d
			} else {
				acc.(*swhh.MementoHHH).Merge(d)
			}
		case *continuous.Detector:
			if acc == nil {
				acc = d
			} else {
				acc.(*continuous.Detector).Merge(d)
			}
		default:
			t.Fatalf("reference: unmergeable %T", v)
		}
	}
	switch d := acc.(type) {
	case wire.ExactSummary:
		total := d.Leaves.Total()
		return hhh.Exact(d.Leaves, d.Hierarchy, hhh.Threshold(total, phi)), total
	case *hhh.PerLevel:
		return d.Query(hhh.Threshold(d.Total(), phi)), d.Total()
	case *hhh.RHHH:
		return d.Query(hhh.Threshold(d.Total(), phi)), d.Total()
	case *swhh.SlidingHHH:
		return d.Query(phi, at), d.WindowTotal(at)
	case *swhh.MementoHHH:
		return d.Query(phi, at), d.WindowTotal(at)
	case *continuous.Detector:
		return d.Query(at), int64(d.TotalMass(at))
	}
	return hhh.NewSet(), 0
}

// checkReport fails unless rep carries the reference merge of frames,
// given in node-name order (the aggregator's merge order), at at.
func checkReport(t *testing.T, rep *AggReport, frames [][]byte, phi float64, at int64) {
	t.Helper()
	set, total := refMerge(t, frames, phi, at)
	if rep.Bytes != total || !rep.Set.Equal(set) {
		t.Fatalf("report at %d: set %v (%d bytes), reference %v (%d bytes)", at, rep.Set, rep.Bytes, set, total)
	}
}

// TestAggregatorMergeEveryKind drives every mergeable kind through the
// cluster path: three one-shard pipelines over a source-partitioned
// stream seal into one Aggregator, and every published report must
// equal the reference merge of the frames behind it in node-name order —
// per round for the windowed kinds, latest frame per node for the
// sliding and continuous ones.
func TestAggregatorMergeEveryKind(t *testing.T) {
	const nodes = 3
	const phi = 0.01
	window := 2 * time.Second
	cases := []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{Engine: KindExact}},
		{"perlevel", Config{Engine: KindPerLevel, Counters: 64}},
		{"rhhh", Config{Engine: KindRHHH, Counters: 64, Seed: 5}},
		{"wcss", Config{Mode: ModeSliding, Engine: KindWCSS, Counters: 64, Frames: 4}},
		{"memento", Config{Mode: ModeSliding, Engine: KindMemento, Counters: 64, Frames: 4, Seed: 5}},
		{"continuous", Config{Mode: ModeContinuous, Cells: 1 << 12, Seed: 5}},
	}
	pkts := testStream(13, 12000, 7)
	last := pkts[len(pkts)-1].Ts + int64(window)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			windowed := tc.cfg.Mode == ModeWindowed
			// Each node seals on its own windows (windowed) or on a
			// Snapshot every trace second (sliding and continuous).
			cols := make([]sealCollector, nodes)
			for n := 0; n < nodes; n++ {
				cfg := tc.cfg
				cfg.Shards, cfg.Window, cfg.Phi, cfg.OnSeal = 1, window, phi, cols[n].add
				d, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				next := int64(time.Second)
				for i := range pkts {
					if int(pkts[i].Src.Lo()%nodes) != n {
						continue
					}
					for !windowed && pkts[i].Ts >= next {
						d.Snapshot(next)
						next += int64(time.Second)
					}
					d.Observe(&pkts[i])
				}
				if !windowed {
					for ; next <= last; next += int64(time.Second) {
						d.Snapshot(next)
					}
				} else {
					d.Snapshot(last)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}

			byEnd := map[int64][]Sealed{}
			for n := range cols {
				for _, s := range cols[n].all() {
					byEnd[s.End] = append(byEnd[s.End], s)
				}
			}
			ends := make([]int64, 0, len(byEnd))
			for e := range byEnd {
				ends = append(ends, e)
			}
			sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
			if len(ends) < 2 {
				t.Fatalf("only %d seal rounds", len(ends))
			}

			agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: phi, RoundGrace: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			latest := make([][]byte, nodes)
			nonEmpty := 0
			for _, e := range ends {
				if len(byEnd[e]) != nodes {
					t.Fatalf("round %d sealed by %d/%d nodes", e, len(byEnd[e]), nodes)
				}
				for n, s := range byEnd[e] {
					if err := agg.Ingest(string(rune('a'+n)), s); err != nil {
						t.Fatalf("ingest node %d end %d: %v", n, e, err)
					}
					latest[n] = s.Frame
					if windowed {
						continue
					}
					var frames [][]byte
					for _, f := range latest {
						if f != nil {
							frames = append(frames, f)
						}
					}
					rep := agg.Report()
					if rep.End != e {
						t.Fatalf("sliding report End %d, want %d", rep.End, e)
					}
					checkReport(t, rep, frames, phi, e)
				}
				rep := agg.Report()
				if windowed {
					if rep.End != e || rep.Nodes != nodes {
						t.Fatalf("round %d published End %d from %d nodes", e, rep.End, rep.Nodes)
					}
					checkReport(t, rep, latest, phi, e)
				}
				if rep.Set.Len() > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < 2 {
				t.Fatalf("only %d non-empty reports over %d rounds", nonEmpty, len(ends))
			}
			if st := agg.Stats(); st.Rejected != 0 || st.LateFrames != 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}
