package trace

import (
	"slices"

	"hiddenhhh/internal/addr"
)

// KeyBatch is the columnar (structure-of-arrays) batch the ingest data
// path hands between the producer, the pipeline rings, and the engine
// fast paths. Instead of shipping 48-byte Packet structs and re-deriving
// hierarchy sketch keys inside every engine, the producer packs each
// family-matching packet's leaf key exactly once with addr.Hierarchy.Key
// and the downstream consumers derive every coarser level by a single
// AND with the hierarchy's per-level KeyMask — masks nest, so
// leafKey & KeyMask(l) equals Hierarchy.Key(a, l) for every level l.
//
// The three columns are parallel: Keys[i], Sizes[i] and Ts[i] describe
// the i-th packet of the batch. Only family-matching packets are packed
// (AppendPackets applies the hierarchy's ingest family filter), so
// consumers never re-check Match. Timestamps stay non-decreasing when the
// input stream is, which the sliding-window engines rely on for frame
// chunking.
//
// A KeyBatch is not safe for concurrent use; the pipeline recycles them
// through per-shard freelists so the steady state allocates nothing.
type KeyBatch struct {
	// Keys holds the packed leaf-level hierarchy keys.
	Keys []uint64
	// Sizes holds the wire lengths in bytes, parallel to Keys.
	Sizes []uint32
	// Ts holds the packet timestamps in trace-epoch nanoseconds,
	// parallel to Keys.
	Ts []int64
}

// NewKeyBatch returns an empty batch with capacity for n packets in
// every column.
func NewKeyBatch(n int) *KeyBatch {
	return &KeyBatch{
		Keys:  make([]uint64, 0, n),
		Sizes: make([]uint32, 0, n),
		Ts:    make([]int64, 0, n),
	}
}

// Len returns the number of packets in the batch.
func (b *KeyBatch) Len() int { return len(b.Keys) }

// Reset truncates all columns to length zero, keeping their capacity for
// reuse.
func (b *KeyBatch) Reset() {
	b.Keys = b.Keys[:0]
	b.Sizes = b.Sizes[:0]
	b.Ts = b.Ts[:0]
}

// Append adds one packed packet to the batch.
func (b *KeyBatch) Append(key uint64, size uint32, ts int64) {
	b.Keys = append(b.Keys, key)
	b.Sizes = append(b.Sizes, size)
	b.Ts = append(b.Ts, ts)
}

// Bytes sums the Sizes column.
func (b *KeyBatch) Bytes() int64 {
	var n int64
	for _, s := range b.Sizes {
		n += int64(s)
	}
	return n
}

// Packer is the columnar path's packing rule for one hierarchy, with the
// family test and the leaf mask hoisted out of the per-packet path.
// Every packing site — AppendPackets, and the pipeline executors'
// single-packet paths — packs through it, so the executors cannot
// disagree on keys or on the family filter.
type Packer struct {
	v6   bool   // the hierarchy's family is IPv6: keys come from the high half
	mask uint64 // the leaf level's key mask
}

// NewPacker returns h's packing rule.
func NewPacker(h addr.Hierarchy) Packer {
	return Packer{v6: h.KeyFromHigh(), mask: h.KeyMask(0)}
}

// Key returns src's leaf-level key, equal to h.Key(src, 0), with
// ok=false for sources outside h's address family (h.Match), which
// ingest skips.
func (k Packer) Key(src addr.Addr) (key uint64, ok bool) {
	if src.Is4() == k.v6 {
		return 0, false
	}
	if k.v6 {
		return src.Hi() & k.mask, true
	}
	return src.Lo() & k.mask, true
}

// AppendPackets packs every packet of pkts that passes pk's family filter
// onto the batch, plus the Size and Ts columns, and returns the number
// of packets packed. The columns are grown once for the whole run and
// written by index.
func (b *KeyBatch) AppendPackets(pk Packer, pkts []Packet) int {
	n := len(b.Keys)
	keys := slices.Grow(b.Keys, len(pkts))[:n+len(pkts)]
	sizes := slices.Grow(b.Sizes, len(pkts))[:n+len(pkts)]
	ts := slices.Grow(b.Ts, len(pkts))[:n+len(pkts)]
	j := n
	for i := range pkts {
		p := &pkts[i]
		key, ok := pk.Key(p.Src)
		if !ok {
			continue
		}
		keys[j], sizes[j], ts[j] = key, p.Size, p.Ts
		j++
	}
	b.Keys, b.Sizes, b.Ts = keys[:j], sizes[:j], ts[:j]
	return j - n
}
