package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// fuzzSeeds returns one valid frame per summary kind plus the classic
// envelope corruptions, the corpus every wire fuzz target starts from.
func fuzzSeeds(f *testing.F) [][]byte {
	filterFrame, err := encodeFilter(testFilter(7))
	if err != nil {
		f.Fatal(err)
	}
	contFrame, err := encodeContinuous(testContinuous(f, 8))
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		encodeSpaceSaving(testSpaceSaving(1, 100)),
		encodeExact(testHierarchy(), testExact(2, 100)),
		encodeExact(testHierarchyV6(), testExact(2, 100)),
		encodePerLevel(testPerLevel(3)),
		encodeRHHH(testRHHH(4)),
		encodeSliding(testSliding(5)),
		encodeMemento(testMemento(6)),
		filterFrame,
		contFrame,
	}
	valid := seeds[3]
	short := slices.Clone(valid[:12])
	badMagic := slices.Clone(valid)
	copy(badMagic, "NOPE")
	badVer := slices.Clone(valid)
	binary.LittleEndian.PutUint16(badVer[4:6], 99)
	hugeLen := slices.Clone(valid)
	binary.LittleEndian.PutUint32(hugeLen[12:16], 1<<30)
	crcFlip := slices.Clone(valid)
	crcFlip[len(crcFlip)-1] ^= 0xff
	// A declared Space-Saving capacity far beyond the payload exercises
	// the allocation budget path.
	hugeCap := frameFor(KindSpaceSaving, 0, 0, 0, func() []byte {
		p := appendU32(nil, 1<<31-1)
		p = appendI64(p, 0)
		return appendU32(p, 0)
	}())
	return append(seeds, short, badMagic, badVer, hugeLen, crcFlip, hugeCap)
}

// FuzzWireDecode feeds arbitrary bytes to the generic frame decoder: it
// must either return a typed error or a decoded summary, never panic,
// and never allocate from attacker-declared capacities beyond the
// documented budgets (the -fuzzminimize memory limit catches blowups).
func FuzzWireDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			if v != nil {
				t.Fatalf("Decode returned both a value (%T) and an error (%v)", v, err)
			}
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrKind) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrCRC) && !errors.Is(err, ErrHierarchy) &&
				!errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap a typed wire error", err)
			}
			return
		}
		if v == nil {
			t.Fatal("Decode returned nil value with nil error")
		}
	})
}

// FuzzWireRoundTrip checks the codec's fixpoint property on every input
// the fuzzer finds decodable: re-encoding a decoded frame must
// reproduce the original bytes exactly, and decode again cleanly.
func FuzzWireRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(v)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode is not byte-identical (%d vs %d bytes)", len(re), len(data))
		}
		if _, err := Decode(re); err != nil {
			t.Fatalf("second decode failed: %v", err)
		}
	})
}
