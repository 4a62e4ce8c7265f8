package main

import "testing"

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{name: "round", parent: noSpan, start: 0, end: 100},
		{name: "seal", parent: 0, start: 10, end: 30},
		{name: "seal", parent: 0, start: 20, end: 50},    // overlaps the first child
		{name: "ingest", parent: 0, start: 90, end: 120}, // runs past the parent
		{name: "decode", parent: 3, start: 95, end: 105},
		{name: "observe", parent: noSpan, start: 200, end: 260},
	}
	got := selfTimes(spans)
	// round: 100 - |[10,50) ∪ [90,100)| = 100 - 50.
	want := []int64{50, 20, 30, 20, 10, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestLedgerCoverageCountsRootsOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "a", parent: noSpan, start: 0, end: 40},
		{name: "b", parent: noSpan, start: 30, end: 60}, // overlaps a
		{name: "c", parent: 1, start: 35, end: 45},
		{name: "a", parent: noSpan, start: 100, end: 110},
	}}
	lg := tr.ledger()
	if lg.covered != 70 {
		t.Errorf("covered %d ns, want 70", lg.covered)
	}
	if lg.self["a"] != 50 || lg.self["b"] != 20 || lg.self["c"] != 10 {
		t.Errorf("self times %v, want a=50 b=20 c=10", lg.self)
	}
	if n := len(lg.durs["a"]); n != 2 {
		t.Errorf("%d durations for a, want 2", n)
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{5, 5}}, 0},
		{[]interval{{0, 10}, {10, 20}}, 20},
		{[]interval{{0, 10}, {2, 3}, {15, 20}}, 15},
		{[]interval{{15, 20}, {0, 16}}, 20},
	}
	for _, c := range cases {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan, -1)
	tr.end(id)
	if id != noSpan {
		t.Fatalf("nil tracer returned span %d", id)
	}
}
