package core

import (
	"math/rand"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/sim"
)

// The adaptive decoder computes the identical rooted MST on every family,
// size, weight mode and root, with the same ≤12-bit advice.
func TestAdaptiveAcrossFamilies(t *testing.T) {
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 3, 5, 9, 17, 40, 81} {
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				rng := rand.New(rand.NewSource(int64(n)*23 + int64(mode)*101))
				g := seeded(t, fam, n, uint64(int64(n)*23+int64(mode)*101), mode)
				root := graph.NodeID(rng.Intn(g.N()))
				res, err := advice.Run(Scheme{Adaptive: true}, g, root, sim.Options{})
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", fam, mode, n, err)
				}
				if !res.Verified || res.Root != root {
					t.Fatalf("%s/%s n=%d: verified=%v root=%d want %d (%v)",
						fam, mode, n, res.Verified, res.Root, root, res.VerifyErr)
				}
				if res.Advice.MaxBits > 12 {
					t.Fatalf("%s/%s n=%d: %d advice bits", fam, mode, n, res.Advice.MaxBits)
				}
			}
		}
	}
}

// Adaptive and strict decoders consume the same advice and must output
// the same tree; the adaptive one should never be slower than the strict
// schedule plus its pulse barriers.
func TestAdaptiveMatchesStrict(t *testing.T) {
	for _, n := range []int{16, 64, 200} {
		g := seeded(t, "random", n, uint64(int64(n)), gen.WeightsDistinct)
		strict, err := advice.Run(Scheme{}, g, 0, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := advice.Run(Scheme{Adaptive: true}, g, 0, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for u := range strict.ParentPorts {
			if strict.ParentPorts[u] != adaptive.ParentPorts[u] {
				t.Fatalf("n=%d: outputs differ at node %d", n, u)
			}
		}
		// Pulses are rounds too in our accounting, so compare total rounds.
		if adaptive.Rounds > strict.Rounds+adaptive.Pulses {
			t.Fatalf("n=%d: adaptive %d rounds vs strict %d (+%d pulses)",
				n, adaptive.Rounds, strict.Rounds, adaptive.Pulses)
		}
	}
}

// On low-diameter graphs the adaptive variant should beat the worst-case
// schedule comfortably (fragments are shallow, windows mostly idle).
func TestAdaptiveBeatsScheduleOnExpanders(t *testing.T) {
	g := seeded(t, "expander", 600, 5, gen.WeightsDistinct)
	strict, err := advice.Run(Scheme{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := advice.Run(Scheme{Adaptive: true}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !adaptive.Verified {
		t.Fatal(adaptive.VerifyErr)
	}
	if adaptive.Rounds >= strict.Rounds {
		t.Fatalf("adaptive %d rounds, strict %d — expected a win", adaptive.Rounds, strict.Rounds)
	}
}

func TestAdaptiveDeterminism(t *testing.T) {
	mk := func() *graph.Graph {
		return seeded(t, "random", 50, 9, gen.WeightsUnit)
	}
	a, err := advice.Run(Scheme{Adaptive: true}, mk(), 2, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := advice.Run(Scheme{Adaptive: true}, mk(), 2, sim.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("divergence: %+v vs %+v", a, b)
	}
}

func TestAdaptiveName(t *testing.T) {
	if (Scheme{Adaptive: true}).Name() != "core-adaptive" || (Scheme{}).Name() != "core" {
		t.Fatal("names wrong")
	}
	if !(Scheme{Adaptive: true}).NeedsPulses() || (Scheme{}).NeedsPulses() {
		t.Fatal("NeedsPulses wrong")
	}
}
