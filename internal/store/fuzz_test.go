package store

import (
	"os"
	"path/filepath"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
)

// FuzzDecode asserts the codec's safety contract: arbitrary bytes never
// panic the decoder, and any input it does accept is a structurally valid
// snapshot that re-encodes to the same bytes (the format has a single
// canonical encoding, so accept ⇒ fixed point).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	g := seeded(f, "random", 24, 1, gen.WeightsDistinct)
	blob, err := Encode(&Snapshot{Graph: g, Root: 3, Cap: 11})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for cut := 0; cut < len(blob); cut += 7 {
		f.Add(blob[:cut])
	}
	mutated := append([]byte(nil), blob...)
	mutated[len(magic)+2] ^= 0x40
	f.Add(mutated)
	// The committed goldens carry what Encode's seeds above do not: one
	// snapshot per format version, and the version-3 tier section.
	for _, name := range []string{"v1-golden.mstadv", "v2-golden.mstadv", "v3-golden.mstadv"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	f.Add(paddedSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			return
		}
		if snap.Graph == nil {
			t.Fatal("Decode returned a nil graph without error")
		}
		if err := snap.Graph.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid graph: %v", err)
		}
		if snap.Advice != nil && len(snap.Advice) != snap.Graph.N() {
			t.Fatalf("Decode accepted %d advice strings for %d nodes", len(snap.Advice), snap.Graph.N())
		}
		if snap.Graph.N() > 0 && (snap.Root < 0 || int(snap.Root) >= snap.Graph.N()) {
			t.Fatalf("Decode accepted out-of-range root %d", snap.Root)
		}
		again, err := Encode(snap)
		if err != nil {
			t.Fatalf("re-encoding an accepted snapshot failed: %v", err)
		}
		if len(data) > 7 && data[7] == magicV1[7] {
			// Legacy inputs re-encode to the current version, so the fixed
			// point is semantic: decoding the re-encoding must reproduce
			// the snapshot (with the problem pinned to mst).
			if snap.Problem != "mst" {
				t.Fatalf("legacy snapshot decoded to problem %q", snap.Problem)
			}
			snap2, err := Decode(again)
			if err != nil {
				t.Fatalf("decoding the re-encoded legacy snapshot failed: %v", err)
			}
			if snap2.Problem != snap.Problem || snap2.Root != snap.Root || snap2.Cap != snap.Cap ||
				snap2.Graph.N() != snap.Graph.N() || snap2.Graph.M() != snap.Graph.M() {
				t.Fatalf("legacy round-trip changed the snapshot")
			}
			return
		}
		if string(again) != string(data) {
			t.Fatalf("accepted input is not the canonical encoding (%d vs %d bytes)", len(data), len(again))
		}
	})
}

// FuzzDecodeGraphRecords drives graph.FromEdgeList through the decoder with
// hostile edge records: ports and endpoints are attacker-controlled, so
// this is the codec's main injection surface.
func FuzzDecodeGraphRecords(f *testing.F) {
	tri := graph.NewBuilder(3).AddEdge(0, 1, 5).AddEdge(1, 2, 3).AddEdge(0, 2, 4).MustBuild()
	blob, err := Encode(&Snapshot{Graph: tri, Root: 0})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, uint8(9), uint8(0x10))
	f.Add(blob, uint8(14), uint8(0xFF))
	f.Fuzz(func(t *testing.T, data []byte, pos, xor uint8) {
		if len(data) == 0 {
			return
		}
		mutated := append([]byte(nil), data...)
		mutated[int(pos)%len(mutated)] ^= xor
		_, _ = Decode(mutated) // must not panic
	})
}
