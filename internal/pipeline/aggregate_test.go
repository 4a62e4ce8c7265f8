package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/swhh"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// sealCollector gathers OnSeal emissions (the callback runs on merging
// goroutines, so collection needs a lock).
type sealCollector struct {
	mu    sync.Mutex
	seals []Sealed
}

func (c *sealCollector) add(s Sealed) {
	c.mu.Lock()
	c.seals = append(c.seals, s)
	c.mu.Unlock()
}

func (c *sealCollector) all() []Sealed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Sealed(nil), c.seals...)
}

// TestSealEmission drives a windowed pipeline with OnSeal set and checks
// the emitted frames: monotone sequence numbers, payloads that decode to
// the configured engine, and window spans matching the OnWindow stream.
func TestSealEmission(t *testing.T) {
	var col sealCollector
	var windows []int64
	pkts := testStream(7, 20000, 7)
	width := int64(2 * time.Second)
	d, err := New(Config{
		Shards: 3,
		Window: 2 * time.Second,
		Phi:    0.03,
		Engine: KindPerLevel,
		OnWindow: func(start, end int64, set hhh.Set) {
			windows = append(windows, end)
		},
		OnSeal: func(s Sealed) { col.add(s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveBatch(pkts)
	d.Snapshot(pkts[len(pkts)-1].Ts + width)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	seals := col.all()
	if len(seals) == 0 {
		t.Fatal("no seals emitted")
	}
	if len(seals) != len(windows) {
		t.Fatalf("got %d seals for %d closed windows", len(seals), len(windows))
	}
	for i, s := range seals {
		if s.Seq != int64(i+1) {
			t.Fatalf("seal %d has Seq %d, want %d", i, s.Seq, i+1)
		}
		if s.End != windows[i] || s.Start != windows[i]-width {
			t.Fatalf("seal %d spans [%d,%d], window ended at %d", i, s.Start, s.End, windows[i])
		}
		v, err := wire.Decode(s.Frame)
		if err != nil {
			t.Fatalf("seal %d frame does not decode: %v", i, err)
		}
		pl, ok := v.(*hhh.PerLevel)
		if !ok {
			t.Fatalf("seal %d decoded to %T, want *hhh.PerLevel", i, v)
		}
		if pl.Total() != s.Bytes {
			t.Fatalf("seal %d declares %d bytes, frame holds %d", i, s.Bytes, pl.Total())
		}
	}
}

// TestSealClusterMatchesSingle is the in-process cluster round trip:
// three ingest pipelines over a source-partitioned stream seal their
// windows, an aggregator merges the sealed frames round by round, and —
// because the exact engine merges losslessly — every published global
// set must equal the single-pipeline run over the unpartitioned stream.
func TestSealClusterMatchesSingle(t *testing.T) {
	const nodes = 3
	const phi = 0.03
	window := 2 * time.Second
	width := int64(window)
	pkts := testStream(11, 30000, 7)
	last := pkts[len(pkts)-1].Ts + width

	// Reference: one pipeline over the whole stream.
	ref := map[int64]hhh.Set{}
	single, err := New(Config{
		Shards: 2, Window: window, Phi: phi, Engine: KindExact,
		OnWindow: func(start, end int64, set hhh.Set) { ref[end] = set },
	})
	if err != nil {
		t.Fatal(err)
	}
	single.ObserveBatch(pkts)
	single.Snapshot(last)
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}

	// Fleet: partition by source, one pipeline per node, collect seals.
	cols := make([]sealCollector, nodes)
	for n := 0; n < nodes; n++ {
		d, err := New(Config{
			Shards: 2, Window: window, Phi: phi, Engine: KindExact,
			OnSeal: cols[n].add,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range pkts {
			if int(pkts[i].Src.Lo()%nodes) == n {
				d.Observe(&pkts[i])
			}
		}
		d.Snapshot(last)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}

	agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: phi, RoundGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// Feed window by window; the round completes on the last node's
	// frame, so the report read right after is that round's.
	byEnd := map[int64][]struct {
		node string
		s    Sealed
	}{}
	for n := range cols {
		name := string(rune('a' + n))
		for _, s := range cols[n].all() {
			byEnd[s.End] = append(byEnd[s.End], struct {
				node string
				s    Sealed
			}{name, s})
		}
	}
	ends := make([]int64, 0, len(byEnd))
	for e := range byEnd {
		ends = append(ends, e)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })

	checked := 0
	for _, e := range ends {
		if len(byEnd[e]) != nodes {
			t.Fatalf("window %d sealed by %d/%d nodes", e, len(byEnd[e]), nodes)
		}
		for _, f := range byEnd[e] {
			if err := agg.Ingest(f.node, f.s); err != nil {
				t.Fatalf("ingest node %s end %d: %v", f.node, e, err)
			}
		}
		rep := agg.Report()
		if rep.End != e {
			t.Fatalf("report End %d after completing round %d", rep.End, e)
		}
		if rep.Degraded || rep.Nodes != nodes {
			t.Fatalf("complete round %d published degraded=%v nodes=%d", e, rep.Degraded, rep.Nodes)
		}
		want, ok := ref[e]
		if !ok {
			t.Fatalf("no reference window ending at %d", e)
		}
		if !rep.Set.Equal(want) {
			t.Fatalf("window %d: cluster set %v != single-run set %v", e, rep.Set, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no rounds checked")
	}
	st := agg.Stats()
	if st.Kind != "exact" || st.Merges != int64(checked) || st.DegradedMerges != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Nodes) != nodes {
		t.Fatalf("stats tracks %d nodes", len(st.Nodes))
	}
}

// frameOf seals an engine value with wire.Encode; every engine these
// tests build is encodable, so an error is a bug in the test.
func frameOf(v any) []byte {
	f, err := wire.Encode(v)
	if err != nil {
		panic(err)
	}
	return f
}

// exactSeal builds a Sealed exact frame over a tiny fixed hierarchy for
// direct aggregator tests.
func exactSeal(seq, start, end int64, keys map[uint64]int64) Sealed {
	ex := sketch.NewExact(len(keys))
	for k, v := range keys {
		ex.Update(k, v)
	}
	return Sealed{
		Seq: seq, Start: start, End: end, Bytes: ex.Total(), Shards: 1,
		Frame: frameOf(wire.ExactSummary{Hierarchy: cfgHierarchy(), Leaves: ex}),
	}
}

// TestAggregatorGraceDegrades starves a round of one node and checks the
// grace timer publishes it degraded with the nodes that arrived.
func TestAggregatorGraceDegrades(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{Expected: 3, Phi: 0.1, RoundGrace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	end := int64(time.Second)
	if err := agg.Ingest("a", exactSeal(1, 0, end, map[uint64]int64{1: 100})); err != nil {
		t.Fatal(err)
	}
	if err := agg.Ingest("b", exactSeal(1, 0, end, map[uint64]int64{2: 50})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for agg.Report().Seq == 0 {
		if time.Now().After(deadline) {
			t.Fatal("grace timer never published the starved round")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep := agg.Report()
	if !rep.Degraded || rep.Nodes != 2 || rep.End != end {
		t.Fatalf("starved round published %+v", rep)
	}
	if rep.Bytes != 150 {
		t.Fatalf("starved round mass %d, want 150", rep.Bytes)
	}
	st := agg.Stats()
	if st.DegradedMerges != 1 {
		t.Fatalf("degraded merges %d, want 1", st.DegradedMerges)
	}
}

// TestAggregatorRejects exercises the validation surface: garbage
// frames, kind drift, hierarchy drift and stale sequence numbers.
func TestAggregatorRejects(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.1, RoundGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	if err := agg.Ingest("a", Sealed{Seq: 1, Frame: []byte("not a frame")}); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("garbage frame: %v", err)
	}
	good := exactSeal(1, 0, int64(time.Second), map[uint64]int64{1: 10})
	if err := agg.Ingest("a", good); err != nil {
		t.Fatal(err)
	}
	// Kind drift: a per-level frame against an exact fleet.
	pl := hhh.NewPerLevel(cfgHierarchy(), 8)
	drift := Sealed{Seq: 2, End: int64(time.Second), Frame: frameOf(pl)}
	if err := agg.Ingest("b", drift); !errors.Is(err, ErrFrameRejected) {
		t.Fatalf("kind drift: %v", err)
	}
	// Hierarchy drift: exact over a different ladder.
	h16 := addr.NewIPv4Hierarchy(16)
	ex := sketch.NewExact(1)
	ex.Update(1, 5)
	wrongH := Sealed{Seq: 3, End: int64(time.Second), Frame: frameOf(wire.ExactSummary{Hierarchy: h16, Leaves: ex})}
	err = agg.Ingest("b", wrongH)
	if !errors.Is(err, ErrFrameRejected) || !errors.Is(err, wire.ErrHierarchyMismatch) {
		t.Fatalf("hierarchy drift: %v", err)
	}
	// Stale sequence from a: dropped silently, counted late.
	if err := agg.Ingest("a", good); err != nil {
		t.Fatalf("stale seq should drop, not error: %v", err)
	}
	st := agg.Stats()
	if st.Rejected != 3 {
		t.Fatalf("rejected %d, want 3", st.Rejected)
	}
	if st.LateFrames != 1 {
		t.Fatalf("late frames %d, want 1", st.LateFrames)
	}
}

// TestAggregatorSliding pins the latest-frame-per-node model: reports
// track the fleet-maximum End, a fresh fleet is not degraded, and a node
// whose newest frame trails by more than the window span degrades the
// report without corrupting it.
func TestAggregatorSliding(t *testing.T) {
	h := cfgHierarchy()
	cfg := swhh.Config{Window: time.Second, Frames: 4, Counters: 64}
	build := func(hostBase byte, upto int64) *swhh.SlidingHHH {
		d, err := swhh.NewSlidingHHH(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var kb trace.KeyBatch
		for now := int64(0); now < upto; now += int64(10 * time.Millisecond) {
			kb.Append(h.Key(addr.From4(10, 0, 0, hostBase), 0), 100, now)
		}
		d.UpdateKeys(&kb)
		return d
	}
	seal := func(seq int64, d *swhh.SlidingHHH, end int64) Sealed {
		return Sealed{Seq: seq, Start: end - int64(time.Second), End: end, Frame: frameOf(d)}
	}
	agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	end0 := int64(time.Second)
	if err := agg.Ingest("a", seal(1, build(1, end0), end0)); err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	if rep.Nodes != 1 || !rep.Degraded {
		t.Fatalf("half fleet published %+v", rep)
	}
	end1 := end0 + int64(200*time.Millisecond)
	if err := agg.Ingest("b", seal(1, build(2, end1), end1)); err != nil {
		t.Fatal(err)
	}
	rep = agg.Report()
	if rep.End != end1 || rep.Nodes != 2 || rep.Degraded {
		t.Fatalf("full fleet published %+v", rep)
	}
	if rep.Set.Len() == 0 {
		t.Fatal("merged sliding report is empty")
	}
	// Node a leaps far ahead; b's frame ages past the window span.
	end2 := end1 + int64(5*time.Second)
	if err := agg.Ingest("a", seal(2, build(1, end2), end2)); err != nil {
		t.Fatal(err)
	}
	rep = agg.Report()
	if rep.End != end2 || !rep.Degraded {
		t.Fatalf("lagging node should degrade: %+v", rep)
	}
}

// sealedFrame builds the summary cfg selects, feeds it pkts and encodes
// it: a frame as an ingest node with that config would seal it.
func sealedFrame(tb testing.TB, cfg Config, pkts []trace.Packet) []byte {
	tb.Helper()
	if err := cfg.setDefaults(); err != nil {
		tb.Fatal(err)
	}
	s, err := newSummary(&cfg, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var kb trace.KeyBatch
	kb.AppendPackets(trace.NewPacker(cfg.Hierarchy), pkts)
	s.UpdateKeys(&kb)
	frame, err := wire.Encode(s.engine())
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// undecodable returns a per-level frame with its level count bumped and
// the CRC recomputed: the envelope passes wire.Inspect, the payload
// fails wire.Decode.
func undecodable(frame []byte) []byte {
	out := slices.Clone(frame)
	out[16+8]++ // header, then the per-level payload's total (i64) and u16 level count
	n := len(out) - 4
	binary.LittleEndian.PutUint32(out[n:], crc32.ChecksumIEEE(out[:n]))
	return out
}

// TestAggregatorPoisonedFleet sends one bad frame from node "bad" into
// a fleet whose node "good" has already been accepted: a Memento frame
// sealed with 256 counters into a fleet running 512 (a latest-frame
// kind), and a per-level frame that passes wire.Inspect but not
// wire.Decode (a round-aligned kind). The bad frame must be rejected and
// charged to "bad", and it must leave no trace: good's three later
// frames are accepted and every report equals the one an aggregator that
// never saw the bad frame publishes.
func TestAggregatorPoisonedFleet(t *testing.T) {
	pkts := testStream(17, 4000, 1)
	memento512 := Config{Mode: ModeSliding, Engine: KindMemento, Window: 10 * time.Second, Frames: 4, Counters: 512, Phi: 0.05, Seed: 3}
	memento256 := memento512
	memento256.Counters = 256
	perLevel := Config{Engine: KindPerLevel, Window: time.Second, Phi: 0.05}
	cases := []struct {
		name      string
		good, bad []byte
		endStep   int64 // End advance per good frame; 0 keeps the sliding span
	}{
		{"memento", sealedFrame(t, memento512, pkts), sealedFrame(t, memento256, pkts), 0},
		{"perlevel", sealedFrame(t, perLevel, pkts), undecodable(sealedFrame(t, perLevel, pkts)), int64(time.Second)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := wire.Inspect(tc.bad); err != nil {
				t.Fatalf("bad frame must pass Inspect: %v", err)
			}
			seal := func(seq int64, frame []byte) Sealed {
				end := int64(time.Second) + (seq-1)*tc.endStep
				return Sealed{Seq: seq, Start: end - int64(time.Second), End: end, Frame: frame}
			}
			newAgg := func() *Aggregator {
				agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.05, RoundGrace: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(agg.Close)
				return agg
			}
			agg, ref := newAgg(), newAgg()
			for _, a := range []*Aggregator{agg, ref} {
				if err := a.Ingest("good", seal(1, tc.good)); err != nil {
					t.Fatal(err)
				}
			}
			if err := agg.Ingest("bad", seal(1, tc.bad)); !errors.Is(err, ErrFrameRejected) {
				t.Fatalf("bad frame: %v, want ErrFrameRejected", err)
			}
			for seq := int64(2); seq <= 4; seq++ {
				for _, a := range []*Aggregator{agg, ref} {
					if err := a.Ingest("good", seal(seq, tc.good)); err != nil {
						t.Fatalf("good frame %d after the bad one: %v", seq, err)
					}
					a.Flush()
				}
				got, want := agg.Report(), ref.Report()
				if !got.Set.Equal(want.Set) || got.Bytes != want.Bytes || got.Nodes != want.Nodes || got.End != want.End {
					t.Fatalf("after good frame %d: report %+v, want %+v", seq, got, want)
				}
				if got.Set.Len() == 0 {
					t.Fatalf("after good frame %d: empty report", seq)
				}
			}
			st, rst := agg.Stats(), ref.Stats()
			if st.Rejected != 1 || st.Merges != rst.Merges || st.Merges < 3 {
				t.Fatalf("stats %+v, reference merges %d", st, rst.Merges)
			}
			for _, n := range st.Nodes {
				want := int64(0)
				if n.Node == "bad" {
					want = 1
				}
				if n.Rejected != want {
					t.Fatalf("node %s rejected %d, want %d", n.Node, n.Rejected, want)
				}
			}
		})
	}
}

// TestAggregatorMergeOrderDeterministic feeds one frame sequence to 20
// fresh aggregators. Memento and Space-Saving merges evict, so the
// merge order shapes the result; the aggregator merges in node-name
// order, so every aggregator must publish identical reports.
func TestAggregatorMergeOrderDeterministic(t *testing.T) {
	const nodes = 4
	pkts := testStream(23, 20000, 1)
	for _, cfg := range []Config{
		{Mode: ModeSliding, Engine: KindMemento, Counters: 16, Frames: 4, Seed: 3},
		{Mode: ModeSliding, Engine: KindWCSS, Counters: 16, Frames: 4},
		{Engine: KindPerLevel, Counters: 16},
	} {
		cfg.Window, cfg.Phi = time.Second, 0.02
		t.Run(cfg.Engine.String(), func(t *testing.T) {
			var seals []Sealed
			for n := 0; n < nodes; n++ {
				var part []trace.Packet
				for i := range pkts {
					if int(pkts[i].Src.Lo()%nodes) == n || i%3 == n%3 { // overlapping partitions
						part = append(part, pkts[i])
					}
				}
				frame := sealedFrame(t, cfg, part)
				seals = append(seals, Sealed{Seq: 1, Start: 0, End: int64(time.Second), Frame: frame})
			}
			var first []*AggReport
			for run := 0; run < 20; run++ {
				agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: cfg.Phi, RoundGrace: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				var reps []*AggReport
				for n, s := range seals {
					if err := agg.Ingest(fmt.Sprintf("node%d", (n*7)%nodes), s); err != nil {
						t.Fatal(err)
					}
					reps = append(reps, agg.Report())
				}
				agg.Close()
				if run == 0 {
					first = reps
					if reps[len(reps)-1].Set.Len() == 0 {
						t.Fatal("empty merged report")
					}
					continue
				}
				for i, r := range reps {
					if !r.Set.Equal(first[i].Set) || r.Bytes != first[i].Bytes {
						t.Fatalf("run %d report %d: %v (%d bytes), run 0: %v (%d bytes)",
							run, i, r.Set, r.Bytes, first[i].Set, first[i].Bytes)
					}
				}
			}
		})
	}
}

// BenchmarkAggregatorIngest is the aggregator hop of the cluster
// ledger. One op is one Aggregator.Ingest of a pre-sealed frame from a
// 3-node fleet — decode, merge and publish — so ns/op and B/op read per
// frame. The frames come from three one-shard nodes over a
// source-partitioned stream at the end-to-end benchmark's geometry
// (5 s window, 8 frames, 512 counters). Windowed frames carry no clock,
// so each lap files them into a new round; sliding frames keep their
// End, so every publish merges full, aligned summaries.
func BenchmarkAggregatorIngest(b *testing.B) {
	const nodes = 3
	window := 5 * time.Second
	pkts := testStream(29, 60000, 5)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"memento", Config{Mode: ModeSliding, Engine: KindMemento, Frames: 8, Seed: 9}},
		{"wcss", Config{Mode: ModeSliding, Engine: KindWCSS, Frames: 8}},
		{"perlevel", Config{Engine: KindPerLevel}},
	} {
		tc.cfg.Window, tc.cfg.Phi, tc.cfg.Counters = window, 0.05, 512
		names := make([]string, nodes)
		frames := make([][]byte, nodes)
		for n := range frames {
			var part []trace.Packet
			for i := range pkts {
				if int(pkts[i].Src.Lo()%nodes) == n {
					part = append(part, pkts[i])
				}
			}
			names[n] = fmt.Sprintf("node%d", n)
			frames[n] = sealedFrame(b, tc.cfg, part)
		}
		b.Run(tc.name, func(b *testing.B) {
			agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: tc.cfg.Phi, RoundGrace: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			defer agg.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, lap := i%nodes, int64(i/nodes)
				s := Sealed{Seq: lap + 1, End: int64(window), Frame: frames[n]}
				if tc.cfg.Mode == ModeWindowed {
					s.End = (lap + 1) * int64(window)
				}
				s.Start = s.End - int64(window)
				if err := agg.Ingest(names[n], s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAggregatorConcurrentIngest has three nodes push frames from their
// own goroutines, so decodes run concurrently outside the aggregator
// lock. Every frame must be accepted, and the last publication — which
// merges every node's final frame — must equal a sequential run's.
func TestAggregatorConcurrentIngest(t *testing.T) {
	const nodes, frames = 3, 8
	cfg := Config{Mode: ModeSliding, Engine: KindMemento, Window: 10 * time.Second, Frames: 4, Counters: 32, Phi: 0.05, Seed: 3}
	pkts := testStream(31, 6000, 1)
	seals := make([][]Sealed, nodes)
	for n := range seals {
		for f := 0; f < frames; f++ {
			var part []trace.Packet
			for i := range pkts {
				if int(pkts[i].Src.Lo()%nodes) == n && i%frames <= f {
					part = append(part, pkts[i])
				}
			}
			end := int64(time.Second)
			seals[n] = append(seals[n], Sealed{Seq: int64(f + 1), Start: end - int64(cfg.Window), End: end, Frame: sealedFrame(t, cfg, part)})
		}
	}
	newAgg := func() *Aggregator {
		agg, err := NewAggregator(AggregatorConfig{Expected: nodes, Phi: cfg.Phi})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agg.Close)
		return agg
	}
	seq, conc := newAgg(), newAgg()
	for n := range seals {
		for _, s := range seals[n] {
			if err := seq.Ingest(fmt.Sprintf("node%d", n), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for n := range seals {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for _, s := range seals[n] {
				if err := conc.Ingest(fmt.Sprintf("node%d", n), s); err != nil {
					t.Error(err)
				}
			}
		}(n)
	}
	wg.Wait()
	got, want := conc.Report(), seq.Report()
	if !got.Set.Equal(want.Set) || got.Bytes != want.Bytes || got.Nodes != nodes {
		t.Fatalf("concurrent report %+v, sequential %+v", got, want)
	}
	if st := conc.Stats(); st.Merges != nodes*frames || st.Rejected != 0 {
		t.Fatalf("stats %+v", st)
	}
}
