package store

import (
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// encodeV1 writes the pre-platform version-1 layout: a bare cap varint
// where version 2 carries the problem and payload sections. It exists
// only in the tests — Encode always writes the current version — and
// reuses Encode's output by splicing the header, so the two encoders
// cannot drift on the shared sections.
func encodeV1(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	flat := *s
	flat.Version = 2 // v1 = v2 minus the problem/payload sections; no tier section
	flat.Tiers = nil
	v2, err := Encode(&flat)
	if err != nil {
		t.Fatal(err)
	}
	d := &Cursor{buf: v2, pos: len(magic)}
	if _, err := d.Uvarint("n"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Uvarint("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Uvarint("root"); err != nil {
		t.Fatal(err)
	}
	headerEnd := d.pos // problem + payload sections start here
	if _, err := d.problemName(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.problemPayload(); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), magicV1[:]...)
	blob = append(blob, v2[len(magic):headerEnd]...)
	blob = binary.AppendUvarint(blob, uint64(s.Cap))
	blob = append(blob, v2[d.pos:len(v2)-4]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(blob))
	return append(blob, crc[:]...)
}

// legacySnapshot is the golden instance: the committed version-2 blob,
// decoded (a 32-node, 80-edge graph rooted at node 5 with cap 12).
// TestVersionMatrix checks that the oracle still reproduces its advice.
func legacySnapshot(t *testing.T) *Snapshot {
	t.Helper()
	s, err := Load(filepath.Join("testdata", "v2-golden.mstadv"))
	if err != nil {
		t.Fatal(err)
	}
	s.Version = 0
	return s
}

// TestLegacyDecode pins backward compatibility of the version bump: a
// version-1 blob decodes to the identical snapshot mapped to the "mst"
// problem, and re-encoding it (now version 2) round-trips.
func TestLegacyDecode(t *testing.T) {
	want := legacySnapshot(t)
	blob := encodeV1(t, want)
	if blob[7] != 1 {
		t.Fatalf("legacy encoder wrote version %d", blob[7])
	}
	snap, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, snap, want, "mst")

	again, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again[7] != magic[7] {
		t.Fatalf("re-encode wrote version %d, want %d", again[7], magic[7])
	}
	snap2, err := Decode(again)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, snap2, want, "mst")
}

// TestLegacyGolden decodes the committed pre-bump artifact, so the
// compatibility guarantee is pinned against bytes on disk, not against
// the in-test v1 encoder.
func TestLegacyGolden(t *testing.T) {
	path := filepath.Join("testdata", "v1-golden.mstadv")
	want := legacySnapshot(t)
	snap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, snap, want, "mst")
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, mapped, want, "mst")
}

func assertLegacyEqual(t *testing.T, got, want *Snapshot, problem string) {
	t.Helper()
	if got.Problem != problem {
		t.Fatalf("Problem = %q, want %q", got.Problem, problem)
	}
	if got.Root != want.Root || got.Cap != want.Cap {
		t.Fatalf("Root/Cap = %d/%d, want %d/%d", got.Root, got.Cap, want.Root, want.Cap)
	}
	if got.Graph.N() != want.Graph.N() || got.Graph.M() != want.Graph.M() {
		t.Fatalf("graph %d/%d, want %d/%d", got.Graph.N(), got.Graph.M(), want.Graph.N(), want.Graph.M())
	}
	for u, e := range want.Graph.Edges() {
		if got.Graph.Edges()[u] != e {
			t.Fatalf("edge %d = %+v, want %+v", u, got.Graph.Edges()[u], e)
		}
	}
	if (got.Advice == nil) != (want.Advice == nil) {
		t.Fatalf("advice presence %v, want %v", got.Advice != nil, want.Advice != nil)
	}
	for u := range want.Advice {
		if !got.Advice[u].Equal(want.Advice[u]) {
			t.Fatalf("node %d advice differs", u)
		}
	}
}
