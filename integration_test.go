package mstadvice

// Cross-scheme integration matrix: every scheme against every family
// (including the ones outside the default experiment set), tie-heavy
// weights, the adversarial G_n construction, and a randomized small-n
// sweep. These tests are the reproduction's confidence backbone: each run
// is verified to produce exactly the unique rooted MST.

import (
	"math/rand"
	"testing"

	"mstadvice/internal/graph/gen"
)

// TestMatrixAllFamilies exercises all schemes on the full family zoo.
func TestMatrixAllFamilies(t *testing.T) {
	families := []string{"path", "ring", "grid", "tree", "random", "expander",
		"star", "caterpillar", "binarytree", "complete", "wheel", "lollipop"}
	for _, fname := range families {
		for _, mode := range []WeightMode{WeightsDistinct, WeightsUnit} {
			seed := int64(len(fname)) + int64(mode)*37
			rng := rand.New(rand.NewSource(seed))
			g := seeded(t, fname, 24, uint64(seed), mode)
			root := NodeID(rng.Intn(g.N()))
			for _, s := range Schemes() {
				res, err := Run(s, g, root, RunOptions{})
				if err != nil {
					t.Fatalf("%s on %s/%v: %v", s.Name(), fname, mode, err)
				}
				if !res.Verified {
					t.Fatalf("%s on %s/%v: not the MST: %v", s.Name(), fname, mode, res.VerifyErr)
				}
				// Advice schemes must root at the requested node; the
				// no-advice baselines pick their own canonical root.
				switch s.Name() {
				case "trivial", "oneround", "core", "core-adaptive":
					if res.Root != root {
						t.Fatalf("%s on %s: root %d, want %d", s.Name(), fname, res.Root, root)
					}
				}
			}
		}
	}
}

// TestMatrixOnGn runs every scheme on the Theorem 1 adversarial graph —
// structured, bridge-connected, and maximally tie-heavy.
func TestMatrixOnGn(t *testing.T) {
	gn, err := BuildGn(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		res, err := Run(s, gn.G, 0, RunOptions{})
		if err != nil {
			t.Fatalf("%s on G_10: %v", s.Name(), err)
		}
		if !res.Verified {
			t.Fatalf("%s on G_10: %v", s.Name(), res.VerifyErr)
		}
	}
}

// TestMatrixRandomSweep is a randomized small-n stress over shapes, weight
// modes and roots for the advice schemes (the baselines are covered above
// and are much slower).
func TestMatrixRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20260611))
	families := gen.Names()
	schemes := []Scheme{Trivial(), OneRound(), ConstantAdvice(), ConstantAdviceAdaptive()}
	for trial := 0; trial < 120; trial++ {
		fam := families[rng.Intn(len(families))]
		n := 2 + rng.Intn(59)
		mode := WeightMode(rng.Intn(3))
		g := seeded(t, fam, n, uint64(trial), mode)
		root := NodeID(rng.Intn(g.N()))
		s := schemes[trial%len(schemes)]
		res, err := Run(s, g, root, RunOptions{})
		if err != nil {
			t.Fatalf("trial %d: %s on %s n=%d mode=%v: %v", trial, s.Name(), fam, g.N(), mode, err)
		}
		if !res.Verified || res.Root != root {
			t.Fatalf("trial %d: %s on %s n=%d mode=%v: verified=%v root=%d/%d (%v)",
				trial, s.Name(), fam, g.N(), mode, res.Verified, res.Root, root, res.VerifyErr)
		}
	}
}

// TestProfilesOnLollipop pins the shape story on the adversarial family:
// the 12-bit scheme is logarithmic while both CONGEST baselines pay
// linearly for the tail.
func TestProfilesOnLollipop(t *testing.T) {
	g := seeded(t, "lollipop", 120, 4, WeightsDistinct)
	rounds := map[string]int{}
	for _, name := range []string{"core", "noadvice", "pipeline"} {
		s, _ := SchemeByName(name)
		res, err := Run(s, g, 0, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("%s: %v", name, res.VerifyErr)
		}
		rounds[name] = res.Rounds
	}
	if rounds["core"]*3 > rounds["noadvice"] || rounds["core"]*3 > rounds["pipeline"] {
		t.Fatalf("separation missing on lollipop: %v", rounds)
	}
}
