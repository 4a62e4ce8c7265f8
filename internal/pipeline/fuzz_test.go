package pipeline

import (
	"errors"
	"testing"
	"time"

	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/wire"
)

// FuzzAggregatorIngest feeds arbitrary bytes to the aggregator as one
// frame from each of two nodes, so a decodable frame also completes a
// windowed round or refreshes the sliding view and goes through the
// merge. Ingest must never panic, and every error it returns must wrap
// ErrFrameRejected. A rejected frame must leave no trace: valid Memento
// frames from a third node, one after the first fuzzed frame (nothing
// pinned yet) and one after the second (Memento geometry pinned), must
// publish the same Set, Bytes and Nodes as on a fresh aggregator. The
// corpus seeds one sealed frame per mergeable kind plus a bare filter
// frame, which the aggregator must refuse.
func FuzzAggregatorIngest(f *testing.F) {
	var valid []byte
	for _, cfg := range []Config{
		{Engine: KindExact},
		{Engine: KindPerLevel},
		{Engine: KindRHHH},
		{Mode: ModeSliding, Engine: KindWCSS},
		{Mode: ModeSliding, Engine: KindMemento},
		{Mode: ModeContinuous, Cells: 256},
	} {
		cfg.Window, cfg.Phi, cfg.Counters, cfg.Frames = time.Second, 0.05, 16, 4
		frame := sealedFrame(f, cfg, testStream(3, 200, 1))
		if cfg.Engine == KindMemento {
			valid = frame
		}
		f.Add(frame)
	}
	filter, err := wire.Encode(tdbf.New(tdbf.Config{Cells: 64, Decay: tdbf.Exponential{Tau: time.Second}}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(filter)

	newAgg := func(t *testing.T) *Aggregator {
		agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.05, RoundGrace: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agg.Close)
		return agg
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		agg, fresh := newAgg(t), newAgg(t)
		for i, node := range []string{"a", "b"} {
			err := agg.Ingest(node, Sealed{Seq: 1, End: int64(time.Second), Frame: frame})
			if err != nil && !errors.Is(err, ErrFrameRejected) {
				t.Fatalf("node %s: Ingest error %v does not wrap ErrFrameRejected", node, err)
			}
			seal := Sealed{Seq: int64(i + 1), End: int64(time.Second), Frame: valid}
			errGot, errWant := agg.Ingest("c", seal), fresh.Ingest("c", seal)
			if err == nil {
				return // the fuzzed frame was accepted; nothing to compare
			}
			if errWant != nil || errGot != nil {
				t.Fatalf("valid frame after rejected %s: %v (fresh: %v)", node, errGot, errWant)
			}
			got, want := agg.Report(), fresh.Report()
			if !got.Set.Equal(want.Set) || got.Bytes != want.Bytes || got.Nodes != want.Nodes {
				t.Fatalf("after rejected %s: report %+v, fresh aggregator %+v", node, got, want)
			}
		}
	})
}
