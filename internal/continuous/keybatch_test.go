package continuous

import (
	"math/rand"
	"testing"
	"time"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/tdbf"
	"hiddenhhh/internal/trace"
)

// dualStackStream synthesises a time-ordered mixed-family stream so the
// packing family filter and the key-path chain reconstruction both get
// exercised across batch boundaries.
func dualStackStream(seed int64, n int) []trace.Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Packet, n)
	step := int64(10 * time.Second / time.Duration(n))
	for i := range out {
		var src addr.Addr
		if rng.Intn(4) == 0 {
			src = addr.FromParts(0x2001_0db8_0000_0000|uint64(rng.Intn(6))<<16, uint64(i))
		} else {
			src = addr.From4(10, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(40)))
		}
		out[i] = trace.Packet{Ts: int64(i) * step, Src: src, Size: uint32(40 + rng.Intn(1460))}
	}
	return out
}

// TestContinuousKeyBatchMatchesObserve pins the chunking invariance of
// the detector's one ingest path: UpdateKeys fed awkward batches must
// leave the detector in the state per-packet ingest leaves it — same
// admissions, same exits, same filter folds — for both families, with
// and without level sampling.
func TestContinuousKeyBatchMatchesObserve(t *testing.T) {
	pkts := dualStackStream(17, 16000)
	last := pkts[len(pkts)-1].Ts
	for name, h := range map[string]addr.Hierarchy{
		"ipv4-byte":   addr.NewIPv4Hierarchy(addr.Byte),
		"ipv6-hextet": addr.NewIPv6Hierarchy(addr.Hextet),
	} {
		for _, sampled := range []bool{false, true} {
			name := name
			if sampled {
				name += "-sampled"
			}
			t.Run(name, func(t *testing.T) {
				mk := func() *Detector {
					d, err := NewDetector(Config{
						Hierarchy: h,
						Phi:       0.05,
						Filter: tdbf.Config{
							Cells:  1 << 12,
							Hashes: 4,
							Decay:  tdbf.Exponential{Tau: 2 * time.Second},
						},
						Sampled: sampled,
						Seed:    7,
					})
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				ref := mk()
				for i := range pkts {
					observe(ref, pkts[i].Src, int64(pkts[i].Size), pkts[i].Ts)
				}
				want := ref.Query(last)
				for _, bs := range []int{1, 7, 97, len(pkts)} {
					got := mk()
					kb := trace.NewKeyBatch(bs)
					for off := 0; off < len(pkts); off += bs {
						end := min(off+bs, len(pkts))
						kb.Reset()
						kb.AppendPackets(trace.NewPacker(h), pkts[off:end])
						got.UpdateKeys(kb)
					}
					if got.Packets() != ref.Packets() {
						t.Fatalf("chunk %d: packets %d != per-packet %d", bs, got.Packets(), ref.Packets())
					}
					if got.TotalMass(last) != ref.TotalMass(last) {
						t.Fatalf("chunk %d: mass %v != per-packet %v", bs, got.TotalMass(last), ref.TotalMass(last))
					}
					if got.ActiveLen() != ref.ActiveLen() {
						t.Fatalf("chunk %d: active %d != per-packet %d", bs, got.ActiveLen(), ref.ActiveLen())
					}
					if gs := got.Query(last); !gs.Equal(want) {
						t.Fatalf("chunk %d: query diverged:\nbatch: %v\nref:   %v", bs, gs, want)
					}
				}
			})
		}
	}
}

// observe feeds one packet to d through its only ingest path,
// UpdateKeys, packed by the columnar packing rule — so a source outside
// d's address family is dropped, exactly as at every executor's ingest.
func observe(d *Detector, src addr.Addr, bytes, now int64) {
	var kb trace.KeyBatch
	kb.AppendPackets(trace.NewPacker(d.cfg.Hierarchy), []trace.Packet{{Ts: now, Src: src, Size: uint32(bytes)}})
	d.UpdateKeys(&kb)
}

// benchUpdateKeys measures d's ingest per packet: b.N synthetic packets,
// 1 µs apart, packed and fed in 256-packet batches.
func benchUpdateKeys(b *testing.B, d *Detector) {
	h := d.cfg.Hierarchy
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
