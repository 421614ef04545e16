package mst

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

func TestKruskalSmall(t *testing.T) {
	// Square with diagonal: MST is the three cheapest edges.
	g := reference.MustBuild(graph.NewBuilder(4).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 3).
		AddEdge(3, 0, 4).
		AddEdge(0, 2, 5))
	tree, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.EdgeID{0, 1, 2}
	if !slices.Equal(tree, want) {
		t.Fatalf("Kruskal = %v, want %v", tree, want)
	}
	if g.TotalWeight(tree) != 6 {
		t.Fatalf("weight = %d", g.TotalWeight(tree))
	}
	if err := Verify(g, tree); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnected(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(4).AddEdge(0, 1, 1).AddEdge(2, 3, 1))
	if _, err := Kruskal(g); err == nil {
		t.Error("Kruskal should fail on disconnected graph")
	}
}

// TestSingleNode: K1's MST is empty, and the empty graph (which
// graph.FromEdgeList accepts) is an error, not a panic.
func TestSingleNode(t *testing.T) {
	for _, n := range []int{0, 1} {
		tree, err := Kruskal(reference.MustBuild(graph.NewBuilder(n)))
		if n == 0 && (err == nil || !strings.Contains(err.Error(), "empty graph")) {
			t.Errorf("Kruskal on the empty graph: tree=%v err=%v, want an empty-graph error", tree, err)
		}
		if n == 1 && (err != nil || len(tree) != 0) {
			t.Errorf("Kruskal on K1: tree=%v err=%v", tree, err)
		}
	}
}

// Kruskal agrees with the naive reference, which shares neither the
// global order's radix sort nor the union-find, on the unique MST across
// families, sizes, weight modes (including full ties) and seeds.
func TestAlgorithmsAgree(t *testing.T) {
	check := func(g *graph.Graph, what string) {
		t.Helper()
		k, err := Kruskal(g)
		if err != nil {
			t.Fatalf("%s kruskal: %v", what, err)
		}
		if want := reference.Kruskal(g); !slices.Equal(k, want) {
			t.Fatalf("%s: kruskal %v != reference %v", what, k, want)
		}
		if err := Verify(g, k); err != nil {
			t.Fatalf("%s verify: %v", what, err)
		}
	}
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{2, 5, 16, 40} {
				if fam == "ring" && n < 3 {
					continue
				}
				g := seeded(t, fam, n, uint64(int64(n)*31+int64(mode)), mode)
				check(g, fmt.Sprintf("%s/%s n=%d", fam, mode, n))
			}
		}
	}
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsUnit} {
		for _, n := range []int{2, 6, 15, 24} {
			g := seeded(t, "random", n, uint64(int64(n)+int64(mode)*31), mode)
			check(g, fmt.Sprintf("random/%s n=%d seed %d", mode, n, int64(n)+int64(mode)*31))
		}
	}
}

func TestVerifyRejectsNonMST(t *testing.T) {
	// Path weights force edges 0,1; the triangle edge 2 is heavier.
	g := reference.MustBuild(graph.NewBuilder(3).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(0, 2, 9))
	if err := Verify(g, []graph.EdgeID{0, 2}); err == nil {
		t.Fatal("Verify accepted a non-minimum spanning tree")
	}
	if err := Verify(g, []graph.EdgeID{0}); err == nil {
		t.Fatal("Verify accepted a non-spanning edge set")
	}
	if err := Verify(g, []graph.EdgeID{0, 1}); err != nil {
		t.Fatalf("Verify rejected the true MST: %v", err)
	}
}

func TestIsSpanningTree(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(4).
		AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 0, 1).AddEdge(2, 3, 1))
	if IsSpanningTree(g, []graph.EdgeID{0, 1, 2}) {
		t.Error("cycle accepted")
	}
	if IsSpanningTree(g, []graph.EdgeID{0, 1}) {
		t.Error("too few edges accepted")
	}
	if !IsSpanningTree(g, []graph.EdgeID{0, 1, 3}) {
		t.Error("valid spanning tree rejected")
	}
}

func TestRootAndVerifyRooted(t *testing.T) {
	g := seeded(t, "random", 25, 17, gen.WeightsDistinct)
	tree, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []graph.NodeID{0, 7, 24} {
		pp, err := Root(g, tree, root)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRooted(g, pp, root); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		back, err := EdgesFromParentPorts(g, pp)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(back, tree) {
			t.Fatalf("root %d: edges differ after rooting", root)
		}
	}
}

func TestVerifyRootedRejects(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(3).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(0, 2, 9))
	tree, _ := Kruskal(g)
	pp, _ := Root(g, tree, 0)

	// Wrong designated root.
	if err := VerifyRooted(g, pp, 1); err == nil {
		t.Error("accepted wrong root")
	}
	// Two roots.
	bad := append([]int(nil), pp...)
	bad[2] = -1
	if err := VerifyRooted(g, bad, 0); err == nil {
		t.Error("accepted two roots")
	}
	// Invalid port.
	bad = append([]int(nil), pp...)
	bad[1] = 99
	if err := VerifyRooted(g, bad, 0); err == nil {
		t.Error("accepted invalid port")
	}
	// Cycle: orient 1 and 2 at each other (edge 1 used twice keeps edge
	// count at n-1 only if another node drops its parent; build explicitly).
	bad = []int{-1, g.PortAt(1, 1), g.PortAt(1, 2)}
	if err := VerifyRooted(g, bad, 0); err == nil {
		t.Error("accepted a parent-pointer cycle")
	}
}

// TestVerifyRootedLongPath pins the linear orientation check: a path of
// 10⁵ nodes rooted at one end has depth n-1, which a per-node walk to the
// root would make quadratic.
func TestVerifyRootedLongPath(t *testing.T) {
	const n = 100_000
	b := graph.NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(graph.NodeID(u-1), graph.NodeID(u), graph.Weight(u))
	}
	g := reference.MustBuild(b)
	pp := make([]int, n)
	pp[0] = -1
	for u := 1; u < n; u++ {
		pp[u] = g.PortAt(graph.EdgeID(u-1), graph.NodeID(u))
	}
	if err := VerifyRooted(g, pp, 0); err != nil {
		t.Fatal(err)
	}
}

// orientationGraph is a triangle 1-2-3 hanging off the root 0 by edge 0,
// with a pendant node 4 on node 2. Its MST leaves out edge 3 (3-1).
func orientationGraph() (*graph.Graph, func(e int, u graph.NodeID) int) {
	g := reference.MustBuild(graph.NewBuilder(5).
		AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(3, 1, 9).AddEdge(2, 4, 5))
	return g, func(e int, u graph.NodeID) int { return g.PortAt(graph.EdgeID(e), u) }
}

// TestCheckOrientationRejectsCycles plants cycles directly in the
// orientation check, which VerifyRooted reaches only after the edge set
// has passed Verify: a 2-cycle on one edge, a cycle that avoids the root,
// and a cycle below a node that reaches the root.
func TestCheckOrientationRejectsCycles(t *testing.T) {
	g, port := orientationGraph()
	good := []int{-1, port(0, 1), port(1, 2), port(2, 3), port(4, 4)}
	if err := checkOrientation(g, good, 0); err != nil {
		t.Fatalf("valid orientation rejected: %v", err)
	}
	cases := map[string]struct {
		pp      []int
		wantErr string
	}{
		"2-cycle": {
			[]int{-1, port(1, 1), port(1, 2), port(2, 3), port(4, 4)},
			"mst: parent pointers from 1 do not reach the root",
		},
		"cycle avoiding the root": {
			[]int{-1, port(1, 1), port(2, 2), port(3, 3), port(4, 4)},
			"mst: parent pointers from 1 do not reach the root",
		},
		"cycle below a rooted node": {
			[]int{-1, port(0, 1), port(2, 2), port(2, 3), port(4, 4)},
			"mst: parent pointers from 2 do not reach the root",
		},
	}
	for name, c := range cases {
		err := checkOrientation(g, c.pp, 0)
		if err == nil || err.Error() != c.wantErr {
			t.Errorf("%s: got %v, want %q", name, err, c.wantErr)
		}
	}
}

// TestVerifyRootedRejectsPlanted checks that VerifyRooted rejects the
// same planted faults end to end, plus a parent port naming an edge off
// the tree.
func TestVerifyRootedRejectsPlanted(t *testing.T) {
	g, port := orientationGraph()
	good := []int{-1, port(0, 1), port(1, 2), port(2, 3), port(4, 4)}
	if err := VerifyRooted(g, good, 0); err != nil {
		t.Fatalf("valid orientation rejected: %v", err)
	}
	for name, pp := range map[string][]int{
		"2-cycle":                  {-1, port(1, 1), port(1, 2), port(2, 3), port(4, 4)},
		"cycle avoiding the root":  {-1, port(1, 1), port(2, 2), port(3, 3), port(4, 4)},
		"parent port off the tree": {-1, port(0, 1), port(1, 2), port(3, 3), port(4, 4)},
	} {
		if err := VerifyRooted(g, pp, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEdgesFromParentPortsErrors(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(2).AddEdge(0, 1, 1))
	if _, err := EdgesFromParentPorts(g, []int{-1}); err == nil {
		t.Error("accepted wrong length")
	}
	if _, err := EdgesFromParentPorts(g, []int{-1, -1}); err == nil {
		t.Error("accepted two roots")
	}
	if _, err := EdgesFromParentPorts(g, []int{0, 0}); err == nil {
		t.Error("accepted zero roots")
	}
}

// Property: on unit weights any spanning tree is an MST, and Verify must
// accept whatever Kruskal returns while the orientation round-trips.
func TestUnitWeightsRootRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := seeded(t, "random", 15, uint64(23+trial), gen.WeightsUnit)
		tree, err := Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(g, tree); err != nil {
			t.Fatal(err)
		}
		root := graph.NodeID(rng.Intn(g.N()))
		pp, err := Root(g, tree, root)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRooted(g, pp, root); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkKruskal(b *testing.B) {
	g := seeded(b, "random", 1000, 1, gen.WeightsDistinct)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Kruskal(g); err != nil {
			b.Fatal(err)
		}
	}
}

// A 10⁵-node path plus one chord closing the whole path into a cycle:
// the path is the MST exactly when the chord is heavier than every path
// edge, whatever the depth of the cycle.
func TestVerifyLongCycle(t *testing.T) {
	const n = 100_000
	for _, tc := range []struct {
		chord graph.Weight
		ok    bool
	}{
		{n / 2, false}, // lighter than path edges n/2..n-1
		{1, false},     // ties the lightest path edge, still lighter than the rest
		{n, true},      // heavier than all of them
	} {
		b := graph.NewBuilder(n)
		path := make([]graph.EdgeID, n-1)
		for i := 0; i < n-1; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), graph.Weight(i+1))
			path[i] = graph.EdgeID(i)
		}
		g := reference.MustBuild(b.AddEdge(0, n-1, tc.chord))
		if err := Verify(g, path); (err == nil) != tc.ok {
			t.Errorf("chord weight %d: Verify = %v, want ok=%v", tc.chord, err, tc.ok)
		}
	}
}
