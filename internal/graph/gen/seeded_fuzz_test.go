package gen

import (
	"testing"

	"mstadvice/internal/reference"
)

// FuzzParGenerate fuzzes the seeded parallel generation pipeline over
// (family, n, seed, workers, weight mode): whatever the inputs, the
// parallel build must be bit-identical to the 1-worker build and the
// result must pass reference.Validate, a sequential check independent of
// the parallel one construction ran. CI runs this as a 30s smoke beside
// FuzzDecode.
func FuzzParGenerate(f *testing.F) {
	f.Add(uint8(4), uint16(64), uint64(1), uint8(4), uint8(0))
	f.Add(uint8(5), uint16(33), uint64(99), uint8(16), uint8(1))
	f.Add(uint8(0), uint16(1), uint64(0), uint8(0), uint8(2))
	f.Add(uint8(9), uint16(500), uint64(123456), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, famIdx uint8, n uint16, seed uint64, workers uint8, mode uint8) {
		names := Names()
		name := names[int(famIdx)%len(names)]
		nn := int(n)%512 + 1
		opt := SeededOptions{
			Weights:   WeightMode(mode % 3),
			KeepPorts: famIdx&0x80 != 0,
			KeepIDs:   famIdx&0x40 != 0,
		}
		refOpt := opt
		refOpt.Workers = 1
		ref, err := BuildSeeded(name, nn, seed, refOpt)
		if err != nil {
			t.Fatalf("%s n=%d seed=%d workers=1: %v", name, nn, seed, err)
		}
		parOpt := opt
		parOpt.Workers = int(workers)%16 + 1
		g, err := BuildSeeded(name, nn, seed, parOpt)
		if err != nil {
			t.Fatalf("%s n=%d seed=%d workers=%d: %v", name, nn, seed, parOpt.Workers, err)
		}
		if fingerprint(g) != fingerprint(ref) {
			t.Fatalf("%s n=%d seed=%d: workers=%d output differs from 1-worker build",
				name, nn, seed, parOpt.Workers)
		}
		if err := reference.Validate(g); err != nil {
			t.Fatalf("%s n=%d seed=%d: invalid graph: %v", name, nn, seed, err)
		}
	})
}
