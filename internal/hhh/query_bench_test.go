package hhh

import (
	"math/rand"
	"testing"

	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/trace"
)

// BenchmarkPerLevelEngineQuery measures the conditioned bottom-up query
// of a warmed detector-sized per-level engine — the cost paid at every
// window close, and where per-query map and Tracked-slice churn was
// replaced by reusable scratch tables.
func BenchmarkPerLevelEngineQuery(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	eng := NewPerLevel(h, 512)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	for i := 0; i < 300000; i++ {
		a := addr.From4Uint32(uint32(z.Uint64()) * 2654435761)
		update(eng, a, int64(40+rng.Intn(1460)))
	}
	T := Threshold(eng.Total(), 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := eng.Query(T); s.Len() == 0 {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkPerLevelEngineUpdate measures the per-packet engine update
// (all hierarchy levels) against a detector-sized summary, fed the way
// the executors feed it: pre-packed keys in 256-packet batches.
func BenchmarkPerLevelEngineUpdate(b *testing.B) {
	h := addr.NewIPv4Hierarchy(addr.Byte)
	eng := NewPerLevel(h, 512)
	rng := rand.New(rand.NewSource(2))
	z := rand.NewZipf(rng, 1.2, 1, 1<<16)
	const n, batch = 1 << 16, 256
	kb := trace.NewKeyBatch(n)
	for i := 0; i < n; i++ {
		kb.Append(h.Key(addr.From4Uint32(uint32(z.Uint64())*2654435761), 0), uint32(40+rng.Intn(1460)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		lo := i & (n - 1)
		hi := lo + min(batch, b.N-i)
		eng.UpdateKeys(&trace.KeyBatch{Keys: kb.Keys[lo:hi], Sizes: kb.Sizes[lo:hi], Ts: kb.Ts[lo:hi]})
	}
}
