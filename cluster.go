// Cluster mode: the public surface for running hidden-HHH detection
// across multiple processes. Ingest processes run a ShardedDetector
// with ShardedConfig.OnSeal set; every completed merge arrives at the
// callback as a SealedSummary whose Frame is a stable, versioned,
// CRC-framed binary encoding (see ARCHITECTURE.md, "Cluster mode").
// An aggregator process feeds frames from the whole fleet into an
// Aggregator, which aligns them per window (windowed engines) or
// latest-frame-per-node (sliding and continuous engines), merges them
// through the same Summary adapters the in-process shards run, and
// publishes a global report. Late or missing nodes degrade the report's
// declared coverage, never its correctness.

package hiddenhhh

import (
	"fmt"

	"hiddenhhh/internal/pipeline"
)

// SealedSummary is one merged summary sealed into a self-contained wire
// frame plus the alignment metadata an Aggregator needs: the window
// span, a per-process monotonic sequence number, and the local
// degradation verdict.
type SealedSummary = pipeline.Sealed

// AggregatorConfig configures NewAggregator.
type AggregatorConfig = pipeline.AggregatorConfig

// AggregatorReport is one published global merge: the fleet-wide HHH
// set, the span it covers, and its coverage markers.
type AggregatorReport = pipeline.AggReport

// AggregatorStats is the aggregator-wide counter snapshot, including
// per-node frame counts, sequence high-water marks and lag.
type AggregatorStats = pipeline.AggStats

// AggregatorNodeStats is the per-ingest-node view inside
// AggregatorStats.
type AggregatorNodeStats = pipeline.AggNodeStats

// ErrFrameRejected wraps every Aggregator.Ingest rejection that is the
// sender's fault: undecodable frames, kind or hierarchy drift against
// the fleet, and merge geometry mismatches.
var ErrFrameRejected = pipeline.ErrFrameRejected

// Aggregator merges sealed summary frames from a fleet of ingest
// processes into a global HHH report. Ingest validates every frame
// before it touches an engine and never panics on malformed input; all
// methods are safe for concurrent use. See pipeline.Aggregator for the
// alignment and degradation semantics.
type Aggregator = pipeline.Aggregator

// NewAggregator builds an aggregator for a fleet of cfg.Expected ingest
// nodes shipping sealed frames of one engine kind over one hierarchy.
// Callers should Close it to release pending round timers.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	a, err := pipeline.NewAggregator(cfg)
	if err != nil {
		return nil, fmt.Errorf("hiddenhhh: %w", err)
	}
	return a, nil
}
