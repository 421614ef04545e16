package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
)

// FuzzDecode asserts the codec's safety contract: arbitrary bytes never
// panic the decoder, and any input it does accept is a structurally valid
// snapshot that re-encodes to the same bytes (the format has a single
// canonical encoding, so accept ⇒ fixed point). Almost every mutation
// fails the CRC footer, so each input is also decoded with its footer
// recomputed, which carries the mutation past the checksum to the
// section parsers under the same contract.
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
	f.Add(resealed(blob, uint8(len(magic)+2), 0x40))
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
		checkDecode(t, data)
		if len(data) > 4 {
			checkDecode(t, resealed(data, 0, 0))
		}
	})
}

// checkDecode holds one input to FuzzDecode's contract.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	snap, err := Decode(data)
	if err != nil {
		return
	}
	if snap.Graph == nil {
		t.Fatal("Decode returned a nil graph without error")
	}
	if err := reference.Validate(snap.Graph); err != nil {
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
}

// FuzzDecodeGraphRecords drives graph.FromEdgeList through the decoder with
// hostile edge records: ports and endpoints are attacker-controlled, so
// this is the codec's main injection surface. Each input flips one byte
// of a snapshot's body and reseals the CRC footer, so the mutation
// reaches the record parser and the graph builder instead of failing the
// checksum. An accepted snapshot must hold valid graphs whose adjacency
// agrees with every edge record, and must re-encode to its own bytes.
func FuzzDecodeGraphRecords(f *testing.F) {
	tri := reference.MustBuild(graph.NewBuilder(3).AddEdge(0, 1, 5).AddEdge(1, 2, 3).AddEdge(0, 2, 4))
	blob, err := Encode(&Snapshot{Graph: tri, Root: 0})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, uint8(9), uint8(0x10))
	f.Add(blob, uint8(14), uint8(0xFF))
	// The triangle's three edge records are five one-byte varints each
	// (zigzag ΔU, V, PU, PV, W), followed by the advice flag and the tier
	// count. Each hostile seed rewrites one field, and the graph builder
	// must name the defect.
	field := func(edge, k int) uint8 { return uint8(len(blob) - 4 - 2 - 15 + 5*edge + k) }
	hostile := []struct {
		pos, xor uint8
		want     string
	}{
		{field(2, 2), 0x01, "graph: edge 2 claims port 0 of node 0, which an earlier edge holds"}, // PU 1 → 0
		{field(1, 2), 0x03, "graph: edge 1 port out of range: 2@1 / 0@2"},                         // PU 1 → 2 = deg(1)
		{field(0, 1), 0x02, "graph: edge 0 endpoint out of range: 0-3 (n=3)"},                     // V 1 → 3 = n
	}
	for _, h := range hostile {
		if _, err := Decode(resealed(blob, h.pos, h.xor)); err == nil || err.Error() != h.want {
			f.Fatalf("seed (%d, %#x): got %v, want %q", h.pos, h.xor, err, h.want)
		}
		f.Add(blob, h.pos, h.xor)
	}
	f.Fuzz(func(t *testing.T, data []byte, pos, xor uint8) {
		if len(data) <= 4 {
			return
		}
		mutated := resealed(data, pos, xor)
		snap, err := Decode(mutated)
		if err != nil {
			return
		}
		graphs := []*graph.Graph{snap.Graph}
		for _, tier := range snap.Tiers {
			graphs = append(graphs, tier.Graph)
		}
		for _, g := range graphs {
			if err := reference.Validate(g); err != nil {
				t.Fatalf("Decode accepted an invalid graph: %v", err)
			}
			for ei, e := range g.Edges() {
				for _, end := range [2]struct {
					u, v   graph.NodeID
					pu, pv int32
				}{{e.U, e.V, e.PU, e.PV}, {e.V, e.U, e.PV, e.PU}} {
					h := g.HalfAt(end.u, int(end.pu))
					if h.Edge != graph.EdgeID(ei) || h.To != end.v || g.DstPort(end.u, int(end.pu)) != int(end.pv) {
						t.Fatalf("edge %d %+v: port %d of node %d reads %+v, far port %d",
							ei, e, end.pu, end.u, h, g.DstPort(end.u, int(end.pu)))
					}
				}
			}
		}
		if snap.Version == 0 {
			return // legacy input re-encodes to the current version
		}
		again, err := Encode(snap)
		if err != nil {
			t.Fatalf("re-encoding an accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(again, mutated) {
			t.Fatalf("accepted input is not the canonical encoding (%d vs %d bytes)", len(mutated), len(again))
		}
	})
}

// resealed returns a copy of blob with the body byte at pos (modulo the
// body length) XORed with xor and the CRC footer recomputed; xor 0 only
// reseals.
func resealed(blob []byte, pos, xor uint8) []byte {
	out := append([]byte(nil), blob...)
	body := out[:len(out)-4]
	body[int(pos)%len(body)] ^= xor
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}
