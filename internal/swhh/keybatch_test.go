package swhh

import (
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// dualStackStream synthesises a time-ordered mixed-family stream whose
// span crosses many frame boundaries, so the batch path's frame chunking
// and the family filter interact: wrong-family packets must neither
// update frames nor advance them.
func dualStackStream(seed int64, n int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, n)
	step := int64(12 * time.Second / time.Duration(n))
	for i := range out {
		var src addr.Addr
		if rng.Intn(4) == 0 {
			src = addr.FromParts(0x2001_0db8_0000_0000|uint64(rng.Intn(7))<<16, uint64(i))
		} else {
			src = addr.From4(10, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(40)))
		}
		out[i] = trace.Packet{Ts: int64(i) * step, Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	return out
}

// TestSlidingKeyBatchMatchesUpdate pins the chunking invariance of the
// sliding-window engine's one ingest path: UpdateKeys fed awkward
// batches (including batches that straddle frame edges) must match
// per-packet ingest — same frame rotation, same per-frame totals, same
// reported set — for both families' key packings.
func TestSlidingKeyBatchMatchesUpdate(t *testing.T) {
	pkts := dualStackStream(11, 24000)
	last := pkts[len(pkts)-1].Ts
	cfg := Config{Window: 4 * time.Second, Frames: 8, Counters: 64}
	for name, h := range map[string]addr.Hierarchy{
		"ipv4-byte":   addr.NewIPv4Hierarchy(addr.Byte),
		"ipv6-hextet": addr.NewIPv6Hierarchy(addr.Hextet),
	} {
		t.Run(name, func(t *testing.T) {
			ref, err := NewSlidingHHH(h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pkts {
				update(ref, pkts[i].Src, int64(pkts[i].Size), pkts[i].Ts)
			}
			want := ref.Query(0.02, last)
			wantTotal := ref.WindowTotal(last)
			for _, bs := range []int{1, 7, 97, len(pkts)} {
				got, err := NewSlidingHHH(h, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(pkts); off += bs {
					end := min(off+bs, len(pkts))
					updateBatch(got, pkts[off:end])
				}
				if gt := got.WindowTotal(last); gt != wantTotal {
					t.Fatalf("chunk %d: window total %d != per-packet %d", bs, gt, wantTotal)
				}
				if gs := got.Query(0.02, last); !gs.Equal(want) {
					t.Fatalf("chunk %d: query diverged:\nbatch: %v\nref:   %v", bs, gs, want)
				}
			}
		})
	}
}

// keyEngine is the ingest surface the hierarchical sliding engines share.
type keyEngine interface {
	UpdateKeys(b *trace.KeyBatch)
}

func hierarchyOf(d keyEngine) addr.Hierarchy {
	switch d := d.(type) {
	case *SlidingHHH:
		return d.h
	case *MementoHHH:
		return d.h
	}
	panic("swhh: unknown engine")
}

// updateBatch feeds a time-ordered run to d through its only ingest
// path, UpdateKeys, packed by the columnar packing rule — so sources
// outside d's address family are dropped, exactly as at every executor's
// ingest.
func updateBatch(d keyEngine, pkts []trace.Packet) {
	var kb trace.KeyBatch
	kb.AppendPackets(trace.NewPacker(hierarchyOf(d)), pkts)
	d.UpdateKeys(&kb)
}

// update feeds one packet of bytes from src at time now.
func update(d keyEngine, src addr.Addr, bytes, now int64) {
	updateBatch(d, []trace.Packet{{Ts: now, Src: src, Size: uint32(bytes)}})
}

// benchUpdateKeys measures d's ingest per packet: b.N synthetic packets,
// 1 µs apart, packed and fed in 256-packet batches.
func benchUpdateKeys(b *testing.B, d keyEngine) {
	h := hierarchyOf(d)
	kb := trace.NewKeyBatch(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kb.Append(h.Key(addr.From4Uint32(uint32(i)*2654435761), 0), 1000, int64(i)*1000)
		if kb.Len() == 256 || i == b.N-1 {
			d.UpdateKeys(kb)
			kb.Reset()
		}
	}
}
