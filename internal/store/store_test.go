package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
)

// seeded builds the named seeded family, failing the test on an error.
func seeded(tb testing.TB, family string, n int, seed uint64, w gen.WeightMode) *graph.Graph {
	tb.Helper()
	g, err := gen.BuildSeeded(family, n, seed, gen.SeededOptions{Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// buildSnapshot generates one family instance and its Theorem 3 advice.
func buildSnapshot(t *testing.T, fam string, n int, seed uint64, weights gen.WeightMode) *Snapshot {
	t.Helper()
	g := seeded(t, fam, n, seed, weights)
	advice, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatalf("%s: oracle: %v", fam, err)
	}
	return &Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: advice}
}

func assertSnapshotsEqual(t *testing.T, name string, want, got *Snapshot) {
	t.Helper()
	if err := reference.Equal(want.Graph, got.Graph); err != nil {
		t.Fatalf("%s: graph differs after round-trip: %v", name, err)
	}
	if got.Root != want.Root || got.Cap != want.Cap {
		t.Fatalf("%s: metadata differs: root %d/%d cap %d/%d", name, got.Root, want.Root, got.Cap, want.Cap)
	}
	if (want.Advice == nil) != (got.Advice == nil) {
		t.Fatalf("%s: advice presence differs", name)
	}
	for u := range want.Advice {
		if !want.Advice[u].Equal(got.Advice[u]) {
			t.Fatalf("%s: advice of node %d differs: %s vs %s",
				name, u, want.Advice[u], got.Advice[u])
		}
	}
}

// TestGoldenRoundTripAllFamilies is the codec's golden test: for every
// registered generator family, graph + advice survive Save/Load
// bit-identically (graph.Equal checks IDs, edge records, ports, weights
// and the edge at every port; advice is compared string by string).
func TestGoldenRoundTripAllFamilies(t *testing.T) {
	dir := t.TempDir()
	for _, fam := range gen.Names() {
		for _, weights := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
			snap := buildSnapshot(t, fam, 64, 7, weights)
			path := filepath.Join(dir, fam+"-"+weights.String()+".mstadv")
			if err := Save(path, snap); err != nil {
				t.Fatalf("%s: save: %v", fam, err)
			}
			back, err := Load(path)
			if err != nil {
				t.Fatalf("%s: load: %v", fam, err)
			}
			assertSnapshotsEqual(t, fam+"/"+weights.String(), snap, back)
		}
	}
}

// TestDecodedAdviceResidency bounds what a decoded snapshot's advice
// keeps on the heap: at n = 10⁵ at most 1.1 × 24 bytes a node, the
// 16-byte string in the decoder's arena and its pointer. The heap is
// read with the decoded snapshot alive, and again once its advice is
// dropped. 24.0 bytes a node measured on a 2-core host; a 32-byte string
// header beside a word slab kept 48.
func TestDecodedAdviceResidency(t *testing.T) {
	blob, err := Encode(buildSnapshot(t, "random", 100_000, 9, gen.WeightsDistinct))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	n := len(snap.Advice)
	snap.Advice = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(snap)
	perNode := (float64(with.HeapAlloc) - float64(without.HeapAlloc)) / float64(n)
	t.Logf("decoded advice retains %.2f bytes a node", perNode)
	if perNode > 1.1*24 {
		t.Fatalf("decoded advice retains %.2f bytes a node, limit %.1f", perNode, 1.1*24)
	}
}

func TestRoundTripAfterDeletions(t *testing.T) {
	// Deletions renumber ports and edge IDs; the codec must reproduce the
	// post-deletion layout, not the insertion order.
	g := seeded(t, "random", 128, 3, gen.WeightsDistinct)
	for e := g.M() - 1; e >= 0 && g.M() > 200; e-- {
		_ = g.ApplyBatch(graph.Batch{Deletions: []graph.EdgeID{graph.EdgeID(e)}}) // bridges legitimately refuse
	}
	snap := &Snapshot{Graph: g, Root: 5, Cap: core.DefaultCap}
	blob, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "after-deletions", snap, back)
}

func TestRoundTripBareGraphAndRaggedAdvice(t *testing.T) {
	g := seeded(t, "path", 9, 1, gen.WeightsDistinct)
	// Bare graph (no advice section).
	blob, err := Encode(&Snapshot{Graph: g, Root: 2})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Advice != nil {
		t.Fatal("bare snapshot came back with advice")
	}
	// Ragged advice, including empty strings and >64-bit strings, to cross
	// every word-boundary case of the bit packer.
	rng := rand.New(rand.NewSource(2))
	advice := make([]*bitstring.BitString, g.N())
	for u := range advice {
		bits := rng.Intn(200)
		if u%3 == 0 {
			bits = 0
		}
		s := bitstring.New(bits)
		for i := 0; i < bits; i++ {
			s.AppendBit(rng.Intn(2) == 1)
		}
		advice[u] = s
	}
	snap := &Snapshot{Graph: g, Root: 0, Cap: 11, Advice: advice}
	blob, err = Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err = Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "ragged", snap, back)
}

func TestOpenMapped(t *testing.T) {
	snap := buildSnapshot(t, "random", 256, 11, gen.WeightsDistinct)
	path := filepath.Join(t.TempDir(), "snap.mstadv")
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	back, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "mapped", snap, back)
}

// TestDecodeRejectsTruncation chops a valid snapshot at every length and
// requires a clean error (no panic, no false accept) — truncation below
// the CRC footer must always be caught.
func TestDecodeRejectsTruncation(t *testing.T) {
	snap := buildSnapshot(t, "grid", 25, 5, gen.WeightsDistinct)
	blob, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Fatalf("Decode accepted a snapshot truncated to %d of %d bytes", cut, len(blob))
		}
	}
}

// TestDecodeRejectsCorruption flips one bit in every byte position and
// requires Decode to fail (the CRC catches every single-bit flip).
func TestDecodeRejectsCorruption(t *testing.T) {
	snap := buildSnapshot(t, "ring", 16, 9, gen.WeightsUnit)
	blob, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		corrupt := append([]byte(nil), blob...)
		corrupt[i] ^= 1 << uint(i%8)
		if _, err := Decode(corrupt); err == nil {
			t.Fatalf("Decode accepted a snapshot with byte %d corrupted", i)
		}
	}
}

func TestSaveIsAtomic(t *testing.T) {
	// Save must not leave temp files behind and must replace the target.
	dir := t.TempDir()
	path := filepath.Join(dir, "x.mstadv")
	snap := buildSnapshot(t, "star", 8, 1, gen.WeightsDistinct)
	for i := 0; i < 2; i++ {
		if err := Save(path, snap); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "x.mstadv" {
		t.Fatalf("directory not clean after Save: %v", entries)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("OpenMapped of a missing file succeeded")
	}
}

// TestDecodeRejectsInflatedMaxBits pins the fix for the header
// amplification attack: a CRC-valid snapshot declaring a huge maximum
// advice size over tiny actual lengths must be rejected for
// non-canonicality before any allocation is sized from the declared
// value (the arena is sized from the per-node lengths, and the declared
// maximum must equal the actual maximum).
func TestDecodeRejectsInflatedMaxBits(t *testing.T) {
	mk := func(maxBits uint64) []byte {
		blob := append([]byte(nil), magic[:]...)
		blob = binary.AppendUvarint(blob, 2) // n
		blob = binary.AppendUvarint(blob, 1) // m
		blob = binary.AppendUvarint(blob, 0) // root
		blob = binary.AppendUvarint(blob, 3) // problem name length
		blob = append(blob, "mst"...)        // problem name
		blob = binary.AppendUvarint(blob, 1) // payload length
		blob = binary.AppendUvarint(blob, 0) // cap
		blob = binary.AppendVarint(blob, 1)  // id[0]
		blob = binary.AppendVarint(blob, 1)  // id[1]
		blob = binary.AppendVarint(blob, 0)  // edge 0: ΔU
		blob = binary.AppendUvarint(blob, 1) // V
		blob = binary.AppendUvarint(blob, 0) // PU
		blob = binary.AppendUvarint(blob, 0) // PV
		blob = binary.AppendUvarint(blob, 7) // W
		blob = append(blob, 1)               // advice flag
		blob = binary.AppendUvarint(blob, maxBits)
		blob = binary.AppendUvarint(blob, 0) // len[0]
		blob = binary.AppendUvarint(blob, 0) // len[1]
		blob = binary.AppendUvarint(blob, 0) // tier count
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(blob))
		return append(blob, crc[:]...)
	}
	if _, err := Decode(mk(1 << 40)); err == nil {
		t.Fatal("Decode accepted a 2^40-bit declared advice maximum over all-empty strings")
	}
	if _, err := Decode(mk(1)); err == nil {
		t.Fatal("Decode accepted declared maximum 1 over all-empty strings (non-canonical)")
	}
	// The canonical header (declared == actual == 0) decodes fine.
	snap, err := Decode(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Advice) != 2 || snap.Advice[0].Len() != 0 {
		t.Fatalf("canonical all-empty advice decoded wrong: %+v", snap.Advice)
	}
}

// TestSaveCrashKeepsPreviousSnapshot simulates a crash at every byte of
// an in-progress Save: a replacement snapshot's temp file (the
// `.mstadv-*` CreateTemp name Save uses) is torn at each possible
// prefix while the previous snapshot sits under the final name. The
// debris must never change what the final name holds — the previous
// snapshot stays byte-identical and loads — and a later Save must
// replace the target cleanly despite it.
func TestSaveCrashKeepsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.mstadv")
	prev := buildSnapshot(t, "star", 8, 1, gen.WeightsDistinct)
	if err := Save(path, prev); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := buildSnapshot(t, "star", 8, 2, gen.WeightsDistinct)
	blob, err := Encode(next)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(blob); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf(".mstadv-%08d", cut))
		if err := os.WriteFile(torn, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("torn temp of %d bytes broke the target: %v", cut, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("torn temp of %d bytes changed the target (%d vs %d bytes)", cut, len(got), len(want))
		}
		snap, err := Load(path)
		if err != nil {
			t.Fatalf("torn temp of %d bytes broke Load: %v", cut, err)
		}
		assertSnapshotsEqual(t, fmt.Sprintf("cut %d", cut), prev, snap)
	}
	// A Save that does finish replaces the target despite the debris.
	if err := Save(path, next); err != nil {
		t.Fatalf("Save around crash debris: %v", err)
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "after recovery save", next, snap)
}

func TestPackBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200, 1000} {
		s := bitstring.New(n)
		for i := 0; i < n; i++ {
			s.AppendBit(rng.Intn(2) == 1)
		}
		packed := AppendBits(nil, s)
		if want := (n + 7) / 8; len(packed) != want {
			t.Fatalf("n=%d: packed %d bytes, want %d", n, len(packed), want)
		}
		// Packing into a reused buffer's dirty spare capacity writes the
		// same bytes.
		dirty := bytes.Repeat([]byte{0xFF}, len(packed)+1)
		if again := AppendBits(dirty[:1], s); !bytes.Equal(again[1:], packed) {
			t.Fatalf("n=%d: packing over dirty capacity wrote %x, want %x", n, again[1:], packed)
		}
		c := NewCursor(packed)
		back, err := c.Bits(uint64(n), "bits")
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := c.End("bits"); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !back.Equal(s) {
			t.Fatalf("n=%d: round trip %s != %s", n, back, s)
		}
	}
	if _, err := NewCursor([]byte{0xFF}).Bits(3, "bits"); err == nil {
		t.Fatal("set padding bits went undetected")
	}
	if _, err := NewCursor([]byte{0x01}).Bits(16, "bits"); err == nil {
		t.Fatal("short buffer went undetected")
	}
}

// paddedSnapshot returns a version-2 snapshot whose advice section has a
// padding bit set, under a valid CRC: a triangle with three 3-bit
// strings packs 9 bits into 2 bytes, the last one the body's last byte.
func paddedSnapshot(tb testing.TB) []byte {
	tb.Helper()
	tri := reference.MustBuild(graph.NewBuilder(3).AddEdge(0, 1, 5).AddEdge(1, 2, 3).AddEdge(0, 2, 4))
	advice := make([]*bitstring.BitString, 3)
	for i := range advice {
		advice[i] = bitstring.New(3)
		advice[i].AppendUint(0b101, 3) // bits 1, 0, 1
	}
	blob, err := Encode(&Snapshot{Graph: tri, Advice: advice, Version: 2})
	if err != nil {
		tb.Fatal(err)
	}
	body := append([]byte(nil), blob[:len(blob)-4]...)
	body[len(body)-1] |= 0x80
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestDecodeRejectsSetPaddingBits pins the advice section's canonical
// form: Encode clears the padding bits, so a snapshot with one set would
// decode to bytes it does not re-encode to.
func TestDecodeRejectsSetPaddingBits(t *testing.T) {
	if _, err := Decode(paddedSnapshot(t)); err == nil {
		t.Fatal("snapshot with a set padding bit decoded")
	}
}

// TestDecodeNextAllocations bounds the decode of a weight-only successor
// at n = 10⁵ against its predecessor's graph by 1.1 × (24m + 24n)
// bytes: the successor's edge records and its advice (a 16-byte string
// and a pointer per node). The graph shares the predecessor's CSR and
// identifiers, which Decode builds anew, with FromEdgeList's validation
// scratch; Decode must not meet the bound.
func TestDecodeNextAllocations(t *testing.T) {
	snap := buildSnapshot(t, "random", 100_000, 13, gen.WeightsDistinct)
	prev := snap.Graph
	edges := slices.Clone(prev.Edges())
	for i := range edges {
		edges[i].W += graph.Weight(i % 3)
	}
	next, ok := prev.Reweighted(edges)
	if !ok {
		t.Fatal("reweighting refused")
	}
	blob, err := Encode(&Snapshot{Graph: next, Root: snap.Root, Cap: snap.Cap, Advice: snap.Advice})
	if err != nil {
		t.Fatal(err)
	}
	n, m := prev.N(), prev.M()
	limit := 1.1 * float64(24*m+24*n)
	allocated := func(decode func() (*Snapshot, error)) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := decode()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := reference.Equal(got.Graph, next); err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	shared := allocated(func() (*Snapshot, error) { return DecodeNext(blob, prev) })
	full := allocated(func() (*Snapshot, error) { return Decode(blob) })
	t.Logf("DecodeNext allocated %.2f MiB, Decode %.2f MiB (limit %.2f MiB)",
		float64(shared)/(1<<20), float64(full)/(1<<20), limit/(1<<20))
	if float64(shared) > limit {
		t.Fatalf("DecodeNext allocated %d bytes, limit %.0f", shared, limit)
	}
	if float64(full) <= limit {
		t.Fatalf("Decode allocated %d bytes, within the limit %.0f that sharing is meant to reach", full, limit)
	}
}
