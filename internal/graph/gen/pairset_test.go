package gen

import (
	"math/rand"
	"testing"

	"mstadvice/internal/graph"
)

// TestPairSetMatchesMap drives the open-addressing pair set against the
// map it replaced, through enough inserts to force several growths.
func TestPairSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := newPairSet(0) // minimum table; exercises grow()
	ref := make(map[[2]int]bool)
	const n = 500
	for i := 0; i < 5000; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		want := !ref[[2]int{a, b}]
		ref[[2]int{a, b}] = true
		if got := s.add(u, v); got != want {
			t.Fatalf("insert %d: add(%d,%d) = %v, want %v", i, u, v, got, want)
		}
	}
	if s.used != len(ref) {
		t.Fatalf("set holds %d pairs, reference %d", s.used, len(ref))
	}
}

// TestGeneratorsDeterministic pins that the randomised families are a
// pure function of the seed.
func TestGeneratorsDeterministic(t *testing.T) {
	g1 := build(t, "random", 200, 9, SeededOptions{})
	g2 := build(t, "random", 200, 9, SeededOptions{})
	if g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatalf("random not deterministic: %d/%d vs %d/%d", g1.N(), g1.M(), g2.N(), g2.M())
	}
	for e := 0; e < g1.M(); e++ {
		if g1.Edge(graph.EdgeID(e)) != g2.Edge(graph.EdgeID(e)) {
			t.Fatalf("random edge %d differs", e)
		}
	}
	x1 := build(t, "expander", 150, 10, SeededOptions{})
	x2 := build(t, "expander", 150, 10, SeededOptions{})
	if x1.M() != x2.M() {
		t.Fatalf("expander not deterministic: m=%d vs %d", x1.M(), x2.M())
	}
	for e := 0; e < x1.M(); e++ {
		if x1.Edge(graph.EdgeID(e)) != x2.Edge(graph.EdgeID(e)) {
			t.Fatalf("expander edge %d differs", e)
		}
	}
}
