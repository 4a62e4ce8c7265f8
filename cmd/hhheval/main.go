// Command hhheval regenerates the paper's experiments, one subcommand
// each. A command that reads a stored trace takes it from -in: pcap when
// the name ends in ".pcap", the binary trace format (cmd/tracegen)
// otherwise; without -in, hidden, sense and compare synthesise
// Tier-1-like traffic. Everything is seeded, so two runs with the same
// flags print the same report apart from wall-clock columns. Run
// "hhheval <command> -h" for a command's flags.
//
//	hhheval hidden                    # Figure 2: HHHs disjoint windows hide from a sliding window
//	hhheval hidden -steps             #   E4a ablation: sliding step sweep
//	hhheval hidden -granularity bit   #   E4b ablation: hierarchy granularity
//	hhheval sense                     # Figure 3: HHH similarity of W vs W-δ window tilings
//	hhheval sense -tails -cdf         #   E4d ablation: same-start tail trims, with Jaccard CDFs
//	hhheval compare                   # Section 3: windowed vs time-decaying detection
//	hhheval compare -sweep            #   E4c ablation: decay constant and filter size
//	hhheval compare -latency          #   E5: time from burst start to first report
//	hhheval oracle -format json       # oracle-differential accuracy suite (-strict: exit 1 on violations)
//	hhheval scan -in dual.pcap -engine rhhh -hierarchy ipv6-hextet
//	                                  # per-window HHH reports over a stored trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/core"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/trace"
)

// commands maps each subcommand to its entry point.
var commands = map[string]func(args []string, stdout io.Writer) error{
	"hidden":  runHidden,
	"sense":   runSense,
	"compare": runCompare,
	"oracle":  runOracle,
	"scan":    runScan,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes the subcommand named by args[0] with the remaining
// arguments, writing its report to stdout and progress to stderr.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 || commands[args[0]] == nil {
		return errors.New("usage: hhheval hidden|sense|compare|oracle|scan [flags]; hhheval <command> -h lists a command's flags")
	}
	return commands[args[0]](args[1:], stdout)
}

// newFlags returns the flag set of subcommand name; a bad flag exits
// with status 2 and -h with status 0, as for a standalone command.
func newFlags(name string) *flag.FlagSet {
	return flag.NewFlagSet("hhheval "+name, flag.ExitOnError)
}

// loadTrace reads the stored trace at path: pcap when the name ends in
// ".pcap", the binary trace format otherwise. An empty trace is an error.
func loadTrace(path string) ([]trace.Packet, error) {
	var pkts []trace.Packet
	var err error
	if strings.HasSuffix(path, ".pcap") {
		pkts, err = pcap.ReadFile(path)
	} else {
		pkts, err = trace.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if len(pkts) == 0 {
		return nil, fmt.Errorf("trace %s is empty", path)
	}
	return pkts, nil
}

// input is one analysed trace: a replayable provider, the span it is
// analysed over and the name reports label it with.
type input struct {
	name     string
	provider core.Provider
	span     int64
}

// loadOrSynthesise returns the stored trace at path when path is set,
// spanning up to its last packet, and otherwise synthesises cfg under
// name, spanning cfg.Duration.
func loadOrSynthesise(path, name string, cfg gen.Config) (input, error) {
	if path != "" {
		pkts, err := loadTrace(path)
		if err != nil {
			return input{}, err
		}
		return input{path, core.SliceProvider(pkts), pkts[len(pkts)-1].Ts + 1}, nil
	}
	fmt.Fprintf(os.Stderr, "synthesising %s (%v at %.0f pps, seed %d)...\n",
		name, cfg.Duration, cfg.MeanPacketRate, cfg.Seed)
	pkts, err := gen.Packets(cfg)
	if err != nil {
		return input{}, err
	}
	return input{name, core.SliceProvider(pkts), int64(cfg.Duration)}, nil
}

// hierarchies maps the -hierarchy and -granularity names to prefix
// lattices; the bare granularity names are the IPv4 ladders.
var hierarchies = map[string]addr.Hierarchy{
	"ipv4-bit":    addr.NewIPv4Hierarchy(addr.Bit),
	"bit":         addr.NewIPv4Hierarchy(addr.Bit),
	"ipv4-nibble": addr.NewIPv4Hierarchy(addr.Nibble),
	"nibble":      addr.NewIPv4Hierarchy(addr.Nibble),
	"ipv4-byte":   addr.NewIPv4Hierarchy(addr.Byte),
	"byte":        addr.NewIPv4Hierarchy(addr.Byte),
	"ipv6-hextet": addr.NewIPv6Hierarchy(addr.Hextet),
	"ipv6-nibble": addr.NewIPv6Hierarchy(addr.Nibble),
}

// hierarchyOf parses a hierarchy name.
func hierarchyOf(s string) (addr.Hierarchy, error) {
	h, ok := hierarchies[s]
	if !ok {
		return addr.Hierarchy{}, fmt.Errorf("unknown hierarchy %q", s)
	}
	return h, nil
}

// parseDurations parses a comma-separated duration list.
func parseDurations(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// parseFloats parses a comma-separated number list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		var f float64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &f); err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hhheval:", err)
	os.Exit(1)
}
