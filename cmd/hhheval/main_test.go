package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/trace"
)

// nsPerPacket matches a Section-3 comparison row around its wall-clock
// ns/pkt cell: the cells before it, its value and padding, and the
// state-KiB cell after it.
var nsPerPacket = regexp.MustCompile(`(?m)^(\S+ +\d+ +\S+ +\S+ +\S+ +)(\d+)( +)(\d+)$`)

// maskNsPerPacket replaces each ns/pkt value with "*", keeping the
// table's column layout.
func maskNsPerPacket(s string) string {
	return nsPerPacket.ReplaceAllStringFunc(s, func(row string) string {
		m := nsPerPacket.FindStringSubmatch(row)
		cell := len(m[2]) + len(m[3])
		return m[1] + "*" + strings.Repeat(" ", cell-1) + m[4]
	})
}

// ingestTiming matches the oracle report's two wall-clock fields.
var ingestTiming = regexp.MustCompile(`("ingest_(?:wall_ms|mpps)": )[^,\n]+`)

// maskIngestTiming zeroes the oracle report's wall-clock fields.
func maskIngestTiming(s string) string { return ingestTiming.ReplaceAllString(s, "${1}0") }

// writeTraces stores the two scan inputs: a 20 s day0 trace in the
// binary format and a 20 s dual-stack pcap (tracegen's day0 and
// dual-stack presets).
func writeTraces(t *testing.T) (day0, dual string) {
	t.Helper()
	dir := t.TempDir()
	day0 = filepath.Join(dir, "day0.hhht")
	dual = filepath.Join(dir, "dual.pcap")
	pkts, err := gen.Packets(gen.Tier1Day(0, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteFile(day0, pkts); err != nil {
		t.Fatal(err)
	}
	if pkts, err = gen.Packets(gen.DualStackScenario(20*time.Second, 42)); err != nil {
		t.Fatal(err)
	}
	if err := pcap.WriteFile(dual, pkts); err != nil {
		t.Fatal(err)
	}
	return day0, dual
}

// TestGolden runs each subcommand on fixed inputs and compares its
// report with testdata/<name>.golden: the reports the standalone
// hiddenhhh, windowsense, tdbfcompare, hhheval and hhhscan commands
// printed for the same flags before they became subcommands. Wall-clock
// fields are masked on both sides.
func TestGolden(t *testing.T) {
	day0, dual := writeTraces(t)
	type goldenCase struct {
		name string
		args []string
		long bool // several seconds; skipped under -short
		mask func(string) string
	}
	cases := []goldenCase{
		{name: "hidden_days1", args: []string{"hidden", "-duration", "20s", "-days", "1"}},
		{name: "hidden_steps", args: []string{"hidden", "-duration", "20s", "-days", "1", "-steps"}},
		{name: "hidden_nibble", args: []string{"hidden", "-duration", "20s", "-days", "1", "-granularity", "nibble"}},
		{name: "hidden_days2", args: []string{"hidden", "-duration", "20s", "-days", "2"}},
		{name: "sense", args: []string{"sense", "-duration", "30s"}},
		{name: "sense_tails_cdf", args: []string{"sense", "-duration", "30s", "-tails", "-cdf"}},
		{name: "compare", args: []string{"compare", "-duration", "30s"}, mask: maskNsPerPacket},
		{name: "compare_sweep", args: []string{"compare", "-duration", "20s", "-sweep"}, long: true},
		{name: "compare_latency", args: []string{"compare", "-duration", "40s", "-latency"}, long: true},
		{name: "oracle_json", args: []string{"oracle", "-duration", "5s", "-format", "json"}, mask: maskIngestTiming},
	}
	for _, engine := range []string{"exact", "perlevel", "rhhh", "continuous"} {
		cases = append(cases,
			goldenCase{name: "scan_" + engine + "_day0", args: []string{"scan", "-in", day0, "-engine", engine}},
			goldenCase{name: "scan_" + engine + "_dual", args: []string{"scan", "-in", dual, "-engine", engine,
				"-hierarchy", "ipv6-nibble", "-v"}},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("several seconds; skipped under -short")
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatalf("run %v: %v", c.args, err)
			}
			got := out.String()
			if c.mask != nil {
				got = c.mask(got)
			}
			if got != string(want) {
				t.Errorf("hhheval %s: report differs from testdata/%s.golden\n--- got ---\n%s\n--- want ---\n%s",
					strings.Join(c.args, " "), c.name, got, want)
			}
		})
	}
}
