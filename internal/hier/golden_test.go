package hier_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/hier"
	"mstadvice/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/tiers.json from the current code")

// tiersRow is one pinned tier build: the SHA-256 of the version-3
// snapshot that carries the family's tiers.
type tiersRow struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	SHA256 string `json:"sha256"`
}

// TestBuildTiersGolden pins BuildTiers' bytes across versions: on every
// seeded family at n ∈ {64, 300}, with tied weights, the tiers at levels
// 1, 2, 3 and the coarsest one, encoded as a version-3 snapshot, must
// hash to the committed digest for one worker and for four, in the
// decomposition and in the coarse oracle alike. Regenerate
// with go test ./internal/hier -run TestBuildTiersGolden -update, only
// when a change is meant to alter the tiers.
func TestBuildTiersGolden(t *testing.T) {
	var got []tiersRow
	for _, fam := range gen.Names() {
		for _, n := range []int{64, 300} {
			g := seeded(t, fam, n, 41, gen.WeightsRandom)
			root := graph.NodeID(n / 3)
			var digest string
			for _, workers := range []int{1, 4} {
				// 1 << 20 clamps to the coarsest level.
				tiers, err := hier.BuildTiers(tower(t, g, root, workers), hier.HierOptions{Levels: []int{1, 2, 3, 1 << 20}, Workers: workers})
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", fam, n, workers, err)
				}
				blob, err := store.Encode(&store.Snapshot{Problem: "mst", Graph: g, Root: root, Cap: 12, Tiers: tiers})
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", fam, n, workers, err)
				}
				sum := sha256.Sum256(blob)
				d := hex.EncodeToString(sum[:])
				if digest != "" && d != digest {
					t.Fatalf("%s n=%d: workers=%d encodes %s, workers=1 %s", fam, n, workers, d, digest)
				}
				digest = d
			}
			got = append(got, tiersRow{Family: fam, N: n, SHA256: digest})
		}
	}
	path := filepath.Join("testdata", "tiers.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []tiersRow
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
