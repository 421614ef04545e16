package trivial

import (
	"math/rand"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/sim"
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

func TestCorrectAcrossFamilies(t *testing.T) {
	var s Scheme
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 8, 40} {
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				rng := rand.New(rand.NewSource(int64(n) + int64(mode)*100))
				g := seeded(t, fam, n, uint64(int64(n)+int64(mode)*100), mode)
				root := graph.NodeID(rng.Intn(g.N()))
				res, err := advice.Run(s, g, root, sim.Options{})
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", fam, mode, n, err)
				}
				if !res.Verified {
					t.Fatalf("%s/%s n=%d: output not the MST: %v", fam, mode, n, res.VerifyErr)
				}
				if res.Root != root {
					t.Fatalf("%s/%s n=%d: root %d, want %d", fam, mode, n, res.Root, root)
				}
				if res.Rounds != 0 {
					t.Fatalf("%s/%s n=%d: %d rounds, want 0", fam, mode, n, res.Rounds)
				}
				if res.Messages != 0 {
					t.Fatalf("%s/%s n=%d: %d messages, want 0", fam, mode, n, res.Messages)
				}
			}
		}
	}
}

// m <= ceil(log n) + 1: width is ceil(log2(deg+1)) <= ceil(log2 n) + 1.
func TestAdviceBound(t *testing.T) {
	var s Scheme
	for _, n := range []int{4, 16, 64, 256} {
		g := seeded(t, "complete", n, uint64(int64(n)), gen.WeightsDistinct) // worst case: degree n-1
		assignment, err := s.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		stats := advice.Measure(assignment, g.N())
		bound := graph.CeilLog2(n) + 1
		if stats.MaxBits > bound {
			t.Fatalf("n=%d: max advice %d bits > %d", n, stats.MaxBits, bound)
		}
		if stats.MaxBits < graph.CeilLog2(n)-1 {
			t.Fatalf("n=%d: max advice %d suspiciously small", n, stats.MaxBits)
		}
	}
}

// Zero-round decoding must also work on tie-heavy instances where the rank
// is the only disambiguator.
func TestUnitWeightsComplete(t *testing.T) {
	var s Scheme
	g := seeded(t, "complete", 20, 9, gen.WeightsUnit)
	res, err := advice.Run(s, g, 5, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Root != 5 {
		t.Fatalf("unit-weight K20 failed: %+v (%v)", res, res.VerifyErr)
	}
}

// Corrupted advice must never verify silently as a different tree with a
// different root — it either panics (caught by the engine) or produces a
// non-MST output.
func TestCorruptedAdviceDetected(t *testing.T) {
	var s Scheme
	g := seeded(t, "random", 12, 4, gen.WeightsDistinct)
	assignment, err := s.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the advice of node 3 to a wrong (but in-range) rank.
	w := assignment[3].Len()
	v := assignment[3].Uint(0, w)
	alt := (v + 1) % (uint64(g.Degree(3)) + 1)
	corrupted := bitstring.New(w)
	corrupted.AppendUint(alt, w)
	assignment[3] = corrupted
	nw := sim.NewNetwork(g)
	res, err := nw.Run(s.NewNode, assignment, sim.Options{})
	if err != nil {
		return // decoder panicked on an out-of-range rank: detected
	}
	if advice.VerifyOutput(g, res.ParentPorts).Verified {
		t.Fatal("corrupted advice still verified as the rooted MST")
	}
}
