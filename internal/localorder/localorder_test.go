package localorder

import (
	"testing"

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

// viewOf extracts the decoder-visible information for node u.
func viewOf(g *graph.Graph, u graph.NodeID) (portW []graph.Weight, selfID int64, nbrID []int64, nbrPort []int) {
	deg := g.Degree(u)
	portW = make([]graph.Weight, deg)
	nbrID = make([]int64, deg)
	nbrPort = make([]int, deg)
	for p := 0; p < deg; p++ {
		h := g.HalfAt(u, p)
		portW[p] = g.Weight(h.Edge)
		nbrID[p] = g.ID(h.To)
		nbrPort[p] = g.PortAt(h.Edge, h.To)
	}
	return portW, g.ID(u), nbrID, nbrPort
}

// The node-side local order must agree with the centralized graph methods.
func TestLocalAgreesWithGraph(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		mode := []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit}[trial%3]
		g := seeded(t, "random", 12, uint64(100+trial), mode)
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			portW, _, _, _ := viewOf(g, u)
			want := reference.PortsByLocalOrder(g, u)
			got := PortsByLocal(portW)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d node %d: local order %v != %v", trial, u, got, want)
				}
			}
			for p := 0; p < g.Degree(u); p++ {
				rank := g.LocalRank(u, p)
				back, ok := LocalRankToPort(portW, rank)
				if !ok || back != p {
					t.Fatalf("trial %d node %d: rank->port failed", trial, u)
				}
			}
		}
	}
}

// The node-side global order must agree with the centralized graph methods.
func TestGlobalAgreesWithGraph(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		mode := []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit}[trial%3]
		g := seeded(t, "random", 12, uint64(200+trial), mode)
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			portW, selfID, nbrID, nbrPort := viewOf(g, u)
			far := func(p int) (int64, int) { return nbrID[p], nbrPort[p] }
			want := reference.PortsByGlobalOrder(g, u)
			got := PortsByGlobal(portW, selfID, far)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d node %d: global order %v != %v", trial, u, got, want)
				}
			}
			for p := 0; p < g.Degree(u); p++ {
				h := g.HalfAt(u, p)
				if KeyAt(portW[p], selfID, p, nbrID[p], nbrPort[p]) != g.Key(h.Edge) {
					t.Fatalf("trial %d node %d port %d: key mismatch", trial, u, p)
				}
			}
			for rank := range want {
				back, ok := GlobalRankToPort(portW, selfID, far, rank)
				if !ok || back != want[rank] {
					t.Fatalf("trial %d node %d: global rank->port failed", trial, u)
				}
			}
		}
	}
}

func TestOutOfRangeRanks(t *testing.T) {
	portW := []graph.Weight{3, 1}
	if _, ok := LocalRankToPort(portW, -1); ok {
		t.Error("negative rank accepted")
	}
	if _, ok := LocalRankToPort(portW, 2); ok {
		t.Error("overflow rank accepted")
	}
	far := func(p int) (int64, int) { return []int64{1, 2}[p], 0 }
	if _, ok := GlobalRankToPort(portW, 5, far, 7); ok {
		t.Error("overflow global rank accepted")
	}
}

func TestEmptyView(t *testing.T) {
	if got := PortsByLocal(nil); len(got) != 0 {
		t.Error("empty view should give empty order")
	}
	if got := PortsByGlobal(nil, 1, nil); len(got) != 0 {
		t.Error("empty view should give empty order")
	}
}
