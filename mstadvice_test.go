package mstadvice

import (
	"testing"
)

// seeded builds the named seeded family, failing the test on an error.
func seeded(tb testing.TB, family string, n int, seed uint64, w WeightMode) *Graph {
	tb.Helper()
	g, err := GenSeeded(family, n, seed, GenSeededOptions{Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// The facade integration test: every public scheme solves every public
// generator family exactly, with the profiles the paper promises.
func TestFacadeEndToEnd(t *testing.T) {
	graphs := map[string]*Graph{
		"path":   seeded(t, "path", 40, 1, WeightsDistinct),
		"ring":   seeded(t, "ring", 40, 2, WeightsDistinct),
		"grid":   seeded(t, "grid", 36, 3, WeightsDistinct),
		"k12":    seeded(t, "complete", 12, 4, WeightsUnit),
		"random": seeded(t, "random", 50, 5, WeightsDistinct),
		"expand": seeded(t, "expander", 50, 6, WeightsDistinct),
	}
	for gname, g := range graphs {
		for _, s := range Schemes() {
			res, err := Run(s, g, 0, RunOptions{})
			if err != nil {
				t.Fatalf("%s on %s: %v", s.Name(), gname, err)
			}
			if !res.Verified {
				t.Fatalf("%s on %s: not the MST: %v", s.Name(), gname, res.VerifyErr)
			}
			switch s.Name() {
			case "trivial":
				if res.Rounds != 0 {
					t.Fatalf("trivial used %d rounds", res.Rounds)
				}
			case "oneround":
				if res.Rounds != 1 {
					t.Fatalf("oneround used %d rounds", res.Rounds)
				}
			case "core":
				if res.Advice.MaxBits > 12 {
					t.Fatalf("core used %d advice bits", res.Advice.MaxBits)
				}
			case "localgather", "noadvice", "pipeline":
				if res.Advice.TotalBits != 0 {
					t.Fatalf("%s used advice", s.Name())
				}
			}
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, want := range []string{"trivial", "oneround", "core", "core-adaptive", "localgather", "noadvice", "pipeline"} {
		s, ok := SchemeByName(want)
		if !ok || s.Name() != want {
			t.Fatalf("SchemeByName(%q) failed", want)
		}
	}
	if _, ok := SchemeByName("nope"); ok {
		t.Fatal("unknown scheme found")
	}
}

func TestBuilderFacade(t *testing.T) {
	g, err := NewBuilder(3).
		AddEdge(0, 1, 4).
		AddEdge(1, 2, 2).
		AddEdge(0, 2, 7).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ConstantAdvice(), g, 2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Root != 2 {
		t.Fatalf("facade run failed: %+v", res)
	}
	// MST is {0-1, 1-2}: node 0's parent is node 1.
	if g.HalfAt(0, res.ParentPorts[0]).To != 1 {
		t.Fatal("wrong tree")
	}
}

func TestConstantAdviceRounds(t *testing.T) {
	exact, paper := ConstantAdviceRounds(1024)
	if exact <= 0 || paper != 90 {
		t.Fatalf("RoundBound(1024) = %d, %d", exact, paper)
	}
}

func TestLowerBoundFacade(t *testing.T) {
	gn, err := BuildGn(8)
	if err != nil {
		t.Fatal(err)
	}
	if gn.G.N() != 16 {
		t.Fatalf("Gn has %d nodes", gn.G.N())
	}
	fam, err := NewLowerBoundFamily(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := fam.Experiment(1)
	if res.Served != 2 || res.K != 5 {
		t.Fatalf("experiment: %+v", res)
	}
}
