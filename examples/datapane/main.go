// Data-plane algorithm comparison: per-window heavy-hitter detection with
// the two in-network systems the paper cites — HashPipe (SOSR'17) and
// UnivMon (SIGCOMM'16) — against exact per-window truth, illustrating the
// accuracy/state trade-offs of match-action-friendly designs and the
// windowed discipline they all share.
//
//	go run ./examples/datapane
package main

import (
	"fmt"
	"log"
	"time"

	"hiddenhhh"
	"hiddenhhh/internal/hashpipe"
	"hiddenhhh/internal/sketch"
	"hiddenhhh/internal/univmon"
)

func main() {
	cfg := hiddenhhh.DefaultTraceConfig()
	cfg.Duration = time.Minute
	cfg.Seed = 5
	pkts, err := hiddenhhh.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}

	const (
		window = 10 * time.Second
		phi    = 0.01 // flat per-source heavy hitters at 1% of window bytes
	)
	hp := hashpipe.New(hashpipe.Config{Stages: 4, SlotsPerStage: 512, Seed: 1})
	um := univmon.New(univmon.Config{Levels: 8, TopK: 64, Seed: 1})
	ss := sketch.NewSpaceSaving(128)
	exact := sketch.NewExact(4096)

	fmt.Printf("flat heavy hitters per %v window at %.0f%% of bytes\n", window, 100*phi)
	fmt.Printf("%-8s %-7s %-22s %-22s %-22s\n", "window", "truth",
		"hashpipe (8 KiB)", "univmon (~340 KiB)", "spacesaving (6 KiB)")

	cur := int64(window)
	var bytes int64
	flush := func(end int64) {
		T := hiddenhhh.Threshold(bytes, phi)
		truth := map[uint64]bool{}
		for _, kv := range exact.HeavyKeys(T) {
			truth[kv.Key] = true
		}
		row := func(got []sketch.KV) string {
			tp, fp := 0, 0
			for _, kv := range got {
				if truth[kv.Key] {
					tp++
				} else {
					fp++
				}
			}
			return fmt.Sprintf("found %2d/%2d (+%d fp)", tp, len(truth), fp)
		}
		fmt.Printf("[%2ds,%2ds) %-7d %-22s %-22s %-22s\n",
			(end-int64(window))/int64(time.Second), end/int64(time.Second),
			len(truth), row(hp.HeavyKeys(T)), row(um.HeavyKeys(T)), row(ss.HeavyKeys(T)))
		// The windowed discipline: reset everything at the boundary.
		hp.Reset()
		um.Reset()
		ss.Reset()
		exact.Reset()
		bytes = 0
	}

	for i := range pkts {
		p := &pkts[i]
		for p.Ts >= cur {
			flush(cur)
			cur += int64(window)
		}
		// Flat (non-hierarchical) heavy-hitter key: fold the 128-bit
		// address into the sketches' uint64 key space. The demo trace is
		// IPv4, where the low half alone is already unique.
		key := p.Src.Hi() ^ p.Src.Lo()
		w := int64(p.Size)
		hp.Update(key, w)
		um.Update(key, w)
		ss.Update(key, w)
		exact.Update(key, w)
		bytes += w
	}
	flush(cur)

	fmt.Println("\nAll three summaries detect the same windows' heavy hitters with")
	fmt.Println("kilobytes of state — and all three inherit the same blind spot: a")
	fmt.Println("burst split across the reset boundary is invisible to every one of")
	fmt.Println("them (see examples/ddosdetect and `go run ./cmd/hhheval hidden`).")
}
