package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
)

// tieredSnapshot is the golden tiered instance: the committed version-3
// blob, decoded. It is the legacy instance plus one hand-built coarse
// tier (level 2, root 1, original-edge hints 3, 10, 11, 40, 79) over a
// 4-node, 5-edge graph, exercising every field of the tier section. The
// codec does not care how tiers are produced, only that the invariants
// hold (ascending original-edge hints inside the main edge range, root
// inside the coarse graph, advice per coarse node).
func tieredSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	s, err := Load(filepath.Join("testdata", "v3-golden.mstadv"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVersionMatrix pins every format the decoder accepts against bytes
// on disk: one committed golden blob per version. The version-2 blob is
// the instance; the version-1 and version-3 blobs must decode to the
// same graph and advice, and re-encoding each decoded snapshot must
// reproduce its file byte for byte. The version-3 blob additionally
// carries a tier, pinning the tier section's wire layout.
func TestVersionMatrix(t *testing.T) {
	flat := legacySnapshot(t)
	encode := func(t *testing.T, s *Snapshot) []byte {
		blob, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	cases := []struct {
		name    string
		path    string
		version int
		encode  func(t *testing.T, s *Snapshot) []byte
	}{
		{"v1", "v1-golden.mstadv", 0, encodeV1},
		{"v2", "v2-golden.mstadv", 2, encode},
		{"v3", "v3-golden.mstadv", 3, encode},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", tc.path))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			assertLegacyEqual(t, snap, flat, "mst")
			if snap.Version != tc.version {
				t.Fatalf("Version = %d, want %d", snap.Version, tc.version)
			}
			if !bytes.Equal(tc.encode(t, snap), blob) {
				t.Fatalf("re-encoding the decoded %s golden does not reproduce %s", tc.name, tc.path)
			}
		})
	}
}

// TestGoldenAdviceReproduced pins the oracle against the committed
// blobs: core.BuildAdvice on the decoded golden graph (root 5, cap 12)
// and on the version-3 tier graph (root 1) must reproduce the stored
// advice bit for bit.
func TestGoldenAdviceReproduced(t *testing.T) {
	flat := legacySnapshot(t)
	if flat.Root != 5 || flat.Cap != 12 {
		t.Fatalf("golden root/cap = %d/%d, want 5/12", flat.Root, flat.Cap)
	}
	tiered := tieredSnapshot(t)
	if len(tiered.Tiers) != 1 {
		t.Fatalf("%d tiers, want 1", len(tiered.Tiers))
	}
	tier := tiered.Tiers[0]
	if tier.Level != 2 || tier.Root != 1 || tier.Graph.N() != 4 ||
		!reflect.DeepEqual(tier.OrigEdge, []graph.EdgeID{3, 10, 11, 40, 79}) {
		t.Fatalf("tier = level %d root %d n %d hints %v", tier.Level, tier.Root, tier.Graph.N(), tier.OrigEdge)
	}
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		root   graph.NodeID
		stored []*bitstring.BitString
	}{
		{"flat", flat.Graph, 5, flat.Advice},
		{"tier", tier.Graph, 1, tier.Advice},
	} {
		adv, err := core.BuildAdvice(c.g, c.root, 12)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(adv) != len(c.stored) {
			t.Fatalf("%s: %d advice strings, stored %d", c.name, len(adv), len(c.stored))
		}
		for u := range adv {
			if !adv[u].Equal(c.stored[u]) {
				t.Fatalf("%s: node %d advice %s, stored %s", c.name, u, adv[u], c.stored[u])
			}
		}
	}
}

// TestTierRoundTrip pins the tier section in memory: encoding and
// decoding a tiered snapshot preserves every tier field exactly, and
// the re-encode is byte-identical (the fuzz fixed-point, pinned here
// on a real instance).
func TestTierRoundTrip(t *testing.T) {
	want := tieredSnapshot(t)
	blob, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if blob[7] != 3 {
		t.Fatalf("tiered snapshot encoded as version %d, want 3", blob[7])
	}
	snap, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertLegacyEqual(t, snap, want, "mst")
	assertTiersEqual(t, snap.Tiers, want.Tiers)
	again, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, blob) {
		t.Fatal("re-encode of a decoded tiered snapshot is not byte-identical")
	}
}

// TestEncodeV2RejectsTiers pins the version guard: tiers cannot be
// forced into the flat version-2 layout.
func TestEncodeV2RejectsTiers(t *testing.T) {
	s := tieredSnapshot(t)
	s.Version = 2
	if _, err := Encode(s); err == nil {
		t.Fatal("Encode accepted tiers under forced version 2")
	}
}

func assertTiersEqual(t *testing.T, got, want []Tier) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tiers, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Level != w.Level || g.Root != w.Root {
			t.Fatalf("tier %d level/root = %d/%d, want %d/%d", i, g.Level, g.Root, w.Level, w.Root)
		}
		if g.Graph.N() != w.Graph.N() || !reflect.DeepEqual(g.Graph.Edges(), w.Graph.Edges()) {
			t.Fatalf("tier %d coarse graph differs", i)
		}
		if !reflect.DeepEqual(g.Graph.IDs(), w.Graph.IDs()) {
			t.Fatalf("tier %d coarse IDs differ", i)
		}
		if !reflect.DeepEqual(g.OrigEdge, w.OrigEdge) {
			t.Fatalf("tier %d original-edge hints differ", i)
		}
		if len(g.Advice) != len(w.Advice) {
			t.Fatalf("tier %d has %d advice strings, want %d", i, len(g.Advice), len(w.Advice))
		}
		for u := range w.Advice {
			if !g.Advice[u].Equal(w.Advice[u]) {
				t.Fatalf("tier %d node %d advice differs", i, u)
			}
		}
	}
}

// matrixRows is the store matrix: version 2, version 3 with a tier,
// no advice, a bare tier, a seeded graph whose IDs, ports and weights
// take multi-byte varints, and that graph with ragged advice of 0–400
// bits a node, whose ≈125 KB of packed bits cross the streaming
// encoder's flushes at odd bit offsets.
func matrixRows(t *testing.T) []struct {
	name string
	s    *Snapshot
} {
	v2 := legacySnapshot(t)
	v2.Version = 2
	noAdvice := legacySnapshot(t)
	noAdvice.Advice = nil
	bareTier := tieredSnapshot(t)
	bareTier.Tiers[0].Advice = nil
	big := buildSnapshot(t, "random", 5000, 3, gen.WeightsDistinct)
	big.Root = 4321
	rng := rand.New(rand.NewSource(5))
	ragged := &Snapshot{Graph: big.Graph, Root: big.Root, Cap: 400, Advice: make([]*bitstring.BitString, big.Graph.N())}
	for u := range ragged.Advice {
		bits := rng.Intn(401)
		s := bitstring.New(bits)
		for range bits {
			s.AppendBit(rng.Intn(2) == 1)
		}
		ragged.Advice[u] = s
	}
	return []struct {
		name string
		s    *Snapshot
	}{
		{"v2", v2},
		{"v3", legacySnapshot(t)},
		{"v3 tiered", tieredSnapshot(t)},
		{"no advice", noAdvice},
		{"bare tier", bareTier},
		{"seeded", big},
		{"ragged", ragged},
	}
}

// TestEncodeSizesExactly pins Encode's sizing pass: across the store
// matrix the blob is allocated once, at exactly its length.
func TestEncodeSizesExactly(t *testing.T) {
	for _, c := range matrixRows(t) {
		blob, err := Encode(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cap(blob) != len(blob) {
			t.Fatalf("%s: Encode reserved %d bytes for a %d-byte blob", c.name, cap(blob), len(blob))
		}
	}
}

// TestSaveMatchesEncode holds the streaming Save to Encode: across the
// store matrix the saved file is Encode's bytes. It also bounds one
// Save of a seeded snapshot with n = 10⁵ (≈4 MB on disk) to 1 MiB of
// heap: the encoder's 72 KiB buffer and the file handles, where
// encoding the whole file first allocated its full length.
func TestSaveMatchesEncode(t *testing.T) {
	dir := t.TempDir()
	for _, c := range matrixRows(t) {
		blob, err := Encode(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		path := filepath.Join(dir, "row.mstadv")
		if err := Save(path, c.s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, blob) {
			t.Fatalf("%s: Save wrote %d bytes that differ from Encode's %d", c.name, len(file), len(blob))
		}
	}
	s := buildSnapshot(t, "random", 100_000, 9, gen.WeightsDistinct)
	path := filepath.Join(dir, "1e5.mstadv")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := Save(path, s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Save at n = 10⁵ allocated %.1f KiB", got/(1<<10))
	if got > 1<<20 {
		t.Fatalf("Save at n = 10⁵ allocated %.2f MiB, limit 1 MiB", got/(1<<20))
	}
}
