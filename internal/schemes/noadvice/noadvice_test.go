package noadvice

import (
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
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

func run(t *testing.T, g *graph.Graph) *advice.Result {
	t.Helper()
	var s Scheme
	res, err := advice.Run(s, g, 0, sim.Options{EnablePulses: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorrectAcrossFamilies(t *testing.T) {
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 3, 8, 21, 48} {
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				g := seeded(t, fam, n, uint64(int64(n)*3+int64(mode)*1000), mode)
				res := run(t, g)
				if !res.Verified {
					t.Fatalf("%s/%s n=%d: not the MST: %v", fam, mode, n, res.VerifyErr)
				}
				if res.Advice.TotalBits != 0 {
					t.Fatal("noadvice must use zero advice")
				}
			}
		}
	}
}

// The final root must be the node that won the last merge, and the tree
// must match the reference MST exactly (strongest structural check).
func TestTreeIsReferenceMST(t *testing.T) {
	g := seeded(t, "random", 40, 11, gen.WeightsDistinct)
	res := run(t, g)
	want, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mst.EdgesFromParentPorts(g, res.ParentPorts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("tree differs from reference MST")
	}
}

// Messages stay CONGEST-sized: every message carries O(1) identifiers,
// never whole subgraphs.
func TestCongestMessages(t *testing.T) {
	g := seeded(t, "random", 60, 12, gen.WeightsDistinct)
	res := run(t, g)
	cm := sim.NewCostModel(g)
	bound := 2 + cm.WeightBits + 2*cm.IDBits + cm.PortBits // largest message type
	if res.MaxMsgBits > bound {
		t.Fatalf("max message %d bits > bound %d", res.MaxMsgBits, bound)
	}
}

// On a path the fragment trees have linear diameter, so rounds must grow
// clearly super-logarithmically — the shape behind the paper's motivation.
func TestPathRoundsGrowLinearly(t *testing.T) {
	rounds := map[int]int{}
	for _, n := range []int{16, 64, 256} {
		g := seeded(t, "path", n, uint64(int64(n)), gen.WeightsDistinct)
		res := run(t, g)
		rounds[n] = res.Rounds
	}
	if rounds[64] < 2*rounds[16] || rounds[256] < 2*rounds[64] {
		t.Fatalf("rounds do not scale with n on paths: %v", rounds)
	}
	if rounds[256] < 256 {
		t.Fatalf("path n=256 finished in %d rounds; expected Ω(n)", rounds[256])
	}
}

// Phase count: Borůvka halves the fragment count, so the number of pulses
// is at most 4·(⌈log n⌉+1) + O(1).
func TestPhaseCount(t *testing.T) {
	for _, n := range []int{8, 64, 128} {
		g := seeded(t, "random", n, uint64(int64(n)), gen.WeightsDistinct)
		res := run(t, g)
		maxPulses := 4*(graph.CeilLog2(n)+1) + 4
		if res.Pulses > maxPulses {
			t.Fatalf("n=%d: %d pulses > %d", n, res.Pulses, maxPulses)
		}
	}
}

func TestDeterminism(t *testing.T) {
	var s Scheme
	mk := func() *graph.Graph {
		return seeded(t, "random", 30, 5, gen.WeightsUnit)
	}
	a, err := advice.Run(s, mk(), 0, sim.Options{EnablePulses: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := advice.Run(s, mk(), 0, sim.Options{EnablePulses: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Root != b.Root {
		t.Fatalf("parallel/sequential divergence: %+v vs %+v", a, b)
	}
	for u := range a.ParentPorts {
		if a.ParentPorts[u] != b.ParentPorts[u] {
			t.Fatalf("outputs differ at node %d", u)
		}
	}
}
