package pipeline

import (
	"errors"
	"testing"
	"time"

	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
	"hiddenhhh/internal/wire"
)

// FuzzAggregatorIngest feeds arbitrary bytes to the aggregator as one
// frame from each of two nodes, so a decodable frame also completes a
// windowed round or refreshes the sliding view and goes through the
// merge. Ingest must never panic, and every error it returns must wrap
// ErrFrameRejected. The corpus seeds one sealed frame per mergeable
// kind plus a bare filter frame, which the aggregator must refuse.
func FuzzAggregatorIngest(f *testing.F) {
	var kb trace.KeyBatch
	kb.AppendPackets(trace.NewPacker(cfgHierarchy()), testStream(3, 200, 1))
	for _, cfg := range []Config{
		{Engine: KindExact},
		{Engine: KindPerLevel},
		{Engine: KindRHHH},
		{Mode: ModeSliding, Engine: KindWCSS},
		{Mode: ModeSliding, Engine: KindMemento},
		{Mode: ModeContinuous, Cells: 256},
	} {
		cfg.Window, cfg.Phi, cfg.Counters, cfg.Frames = time.Second, 0.05, 16, 4
		if err := cfg.setDefaults(); err != nil {
			f.Fatal(err)
		}
		s, err := newSummary(&cfg, 0)
		if err != nil {
			f.Fatal(err)
		}
		s.UpdateKeys(&kb)
		frame, err := wire.Encode(s.engine())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	filter, err := wire.Encode(tdbf.New(tdbf.Config{Cells: 64, Decay: tdbf.Exponential{Tau: time.Second}}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(filter)

	f.Fuzz(func(t *testing.T, frame []byte) {
		agg, err := NewAggregator(AggregatorConfig{Expected: 2, Phi: 0.05, RoundGrace: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		for _, node := range []string{"a", "b"} {
			err := agg.Ingest(node, Sealed{Seq: 1, End: int64(time.Second), Frame: frame})
			if err != nil && !errors.Is(err, ErrFrameRejected) {
				t.Fatalf("node %s: Ingest error %v does not wrap ErrFrameRejected", node, err)
			}
		}
	})
}
