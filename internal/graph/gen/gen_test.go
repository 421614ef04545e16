package gen

import (
	"strings"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/reference"
)

// build is BuildSeeded for tests: it fails the test on an error.
func build(t *testing.T, name string, n int, seed uint64, opt SeededOptions) *graph.Graph {
	t.Helper()
	g, err := BuildSeeded(name, n, seed, opt)
	if err != nil {
		t.Fatalf("%s n=%d seed=%d: %v", name, n, seed, err)
	}
	return g
}

func checkGraph(t *testing.T, g *graph.Graph, wantN int, wantConnected bool) {
	t.Helper()
	if err := reference.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if wantN > 0 && g.N() != wantN {
		t.Fatalf("N = %d, want %d", g.N(), wantN)
	}
	if wantConnected && !reference.Connected(g) {
		t.Fatal("graph not connected")
	}
}

// degreeCount returns how many nodes have each degree.
func degreeCount(g *graph.Graph) map[int]int {
	c := map[int]int{}
	for u := 0; u < g.N(); u++ {
		c[g.Degree(graph.NodeID(u))]++
	}
	return c
}

func TestPath(t *testing.T) {
	g := build(t, "path", 10, 1, SeededOptions{})
	checkGraph(t, g, 10, true)
	if g.M() != 9 || g.MaxDegree() != 2 {
		t.Fatalf("M=%d maxdeg=%d", g.M(), g.MaxDegree())
	}
	if d := degreeCount(g); d[1] != 2 || d[2] != 8 {
		t.Fatalf("path degrees %v", d)
	}
	if reference.Diameter(g) != 9 {
		t.Fatalf("path diameter = %d", reference.Diameter(g))
	}
}

func TestRing(t *testing.T) {
	g := build(t, "ring", 12, 2, SeededOptions{})
	checkGraph(t, g, 12, true)
	if g.M() != 12 {
		t.Fatalf("M = %d", g.M())
	}
	if d := degreeCount(g); d[2] != 12 {
		t.Fatalf("ring degrees %v", d)
	}
	if reference.Diameter(g) != 6 {
		t.Fatalf("ring diameter = %d", reference.Diameter(g))
	}
	if g := build(t, "ring", 2, 2, SeededOptions{}); g.N() != 3 || g.M() != 3 {
		t.Fatalf("ring n=2 clamps to %d nodes, %d edges; want the triangle", g.N(), g.M())
	}
}

func TestGrid(t *testing.T) {
	// n rounds down to a square: 20 nodes give the 4x4 grid.
	g := build(t, "grid", 20, 3, SeededOptions{})
	checkGraph(t, g, 16, true)
	if g.M() != 2*4*3 {
		t.Fatalf("grid M = %d", g.M())
	}
	if d := degreeCount(g); d[2] != 4 || d[3] != 8 || d[4] != 4 {
		t.Fatalf("grid degrees %v", d)
	}
	if reference.Diameter(g) != 3+3 {
		t.Fatalf("grid diameter = %d", reference.Diameter(g))
	}
	if g := build(t, "grid", 1, 3, SeededOptions{}); g.N() != 4 {
		t.Fatalf("grid n=1 has %d nodes, want the 2x2 minimum", g.N())
	}
}

func TestComplete(t *testing.T) {
	g := build(t, "complete", 7, 5, SeededOptions{})
	checkGraph(t, g, 7, true)
	if g.M() != 21 || reference.Diameter(g) != 1 {
		t.Fatalf("K7: M=%d diam=%d", g.M(), reference.Diameter(g))
	}
	if d := degreeCount(g); d[6] != 7 {
		t.Fatalf("K7 degrees %v", d)
	}
}

func TestStar(t *testing.T) {
	g := build(t, "star", 9, 7, SeededOptions{})
	checkGraph(t, g, 9, true)
	if g.M() != 8 || g.Degree(0) != 8 {
		t.Fatalf("star: M=%d centre degree %d", g.M(), g.Degree(0))
	}
	if d := degreeCount(g); d[1] != 8 || d[8] != 1 {
		t.Fatalf("star degrees %v", d)
	}
}

func TestBinaryTree(t *testing.T) {
	g := build(t, "binarytree", 15, 8, SeededOptions{})
	checkGraph(t, g, 15, true)
	if g.M() != 14 || g.MaxDegree() != 3 {
		t.Fatalf("binary tree: M=%d maxdeg=%d", g.M(), g.MaxDegree())
	}
	// The full tree on 15 nodes: a degree-2 root, 6 inner nodes, 8 leaves.
	if d := degreeCount(g); d[1] != 8 || d[2] != 1 || d[3] != 6 {
		t.Fatalf("binary tree degrees %v", d)
	}
}

func TestCaterpillar(t *testing.T) {
	g := build(t, "caterpillar", 11, 9, SeededOptions{})
	checkGraph(t, g, 11, true)
	if g.M() != 10 {
		t.Fatalf("caterpillar M = %d", g.M())
	}
	// A 6-node spine with 5 legs on spine nodes 0..4: the legs and the
	// legless spine end are leaves, the other spine nodes have degree 3
	// except the first, which has one spine neighbour.
	if d := degreeCount(g); d[1] != 6 || d[2] != 1 || d[3] != 4 {
		t.Fatalf("caterpillar degrees %v", d)
	}
}

func TestRandomTree(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := build(t, "tree", 40, seed, SeededOptions{})
		checkGraph(t, g, 40, true)
		if g.M() != 39 {
			t.Fatalf("tree M = %d", g.M())
		}
	}
}

func TestRandomConnected(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := build(t, "random", 30, seed, SeededOptions{})
		checkGraph(t, g, 30, true)
		if g.M() != 90 {
			t.Fatalf("M = %d, want 3n = 90", g.M())
		}
	}
	// 3n clamps to the complete graph's n(n-1)/2 edges.
	for n, want := range map[int]int{1: 0, 2: 1, 5: 10, 7: 21} {
		if g := build(t, "random", n, 1, SeededOptions{}); g.M() != want {
			t.Fatalf("random n=%d: M = %d, want %d", n, g.M(), want)
		}
	}
}

func TestLollipop(t *testing.T) {
	g := build(t, "lollipop", 12, 30, SeededOptions{})
	checkGraph(t, g, 12, true)
	clique := 6
	wantM := clique*(clique-1)/2 + (12 - clique)
	if g.M() != wantM {
		t.Fatalf("lollipop M = %d, want %d", g.M(), wantM)
	}
	// Clique nodes have degree 5 (node 0 one more, for the tail), the
	// tail is a path ending in a leaf.
	if d := degreeCount(g); d[5] != clique-1 || d[6] != 1 || d[2] != 5 || d[1] != 1 {
		t.Fatalf("lollipop degrees %v", d)
	}
	// Diameter is dominated by the tail.
	if reference.Diameter(g) < 12-clique {
		t.Fatalf("lollipop diameter = %d, too small", reference.Diameter(g))
	}
}

func TestWheel(t *testing.T) {
	g := build(t, "wheel", 10, 31, SeededOptions{})
	checkGraph(t, g, 10, true)
	if g.M() != 2*(10-1) {
		t.Fatalf("wheel M = %d", g.M())
	}
	if g.Degree(0) != 9 {
		t.Fatalf("hub degree = %d", g.Degree(0))
	}
	if d := degreeCount(g); d[3] != 9 {
		t.Fatalf("wheel degrees %v", d)
	}
	if reference.Diameter(g) != 2 {
		t.Fatalf("wheel diameter = %d", reference.Diameter(g))
	}
}

func TestExpander(t *testing.T) {
	g := build(t, "expander", 50, 10, SeededOptions{})
	checkGraph(t, g, 50, true)
	// Three Hamiltonian cycles, duplicates dropped: degrees in [2, 6].
	if g.M() > 150 || g.M() < 50 {
		t.Fatalf("expander M = %d, want within [n, 3n]", g.M())
	}
	for deg := range degreeCount(g) {
		if deg < 2 || deg > 6 {
			t.Fatalf("expander has a degree-%d node", deg)
		}
	}
	if reference.Diameter(g) > 10 {
		t.Fatalf("expander diameter suspiciously large: %d", reference.Diameter(g))
	}
}

func TestWeightModes(t *testing.T) {
	g := build(t, "complete", 8, 11, SeededOptions{Weights: WeightsDistinct})
	seen := map[graph.Weight]bool{}
	for _, e := range g.Edges() {
		if seen[e.W] {
			t.Fatal("distinct mode produced a duplicate weight")
		}
		seen[e.W] = true
		if e.W < 1 || e.W > graph.Weight(g.M()) {
			t.Fatalf("weight %d out of range", e.W)
		}
	}

	g = build(t, "complete", 8, 12, SeededOptions{Weights: WeightsUnit})
	for _, e := range g.Edges() {
		if e.W != 1 {
			t.Fatal("unit mode produced non-unit weight")
		}
	}

	// Random weights need not tie, but must lie in [1, m/2+1].
	g = build(t, "complete", 8, 13, SeededOptions{Weights: WeightsRandom})
	for _, e := range g.Edges() {
		if e.W < 1 || e.W > graph.Weight(g.M()/2+1) {
			t.Fatalf("random weight %d out of range", e.W)
		}
	}
}

func TestWeightModeString(t *testing.T) {
	if WeightsDistinct.String() != "distinct" || WeightsUnit.String() != "unit" ||
		WeightsRandom.String() != "random" || WeightMode(42).String() == "" {
		t.Fatal("WeightMode.String broken")
	}
}

func TestDeterminism(t *testing.T) {
	a := build(t, "random", 25, 99, SeededOptions{})
	b := build(t, "random", 25, 99, SeededOptions{})
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatal("same seed produced different shapes")
	}
	for i := 0; i < a.M(); i++ {
		ea, eb := a.Edge(graph.EdgeID(i)), b.Edge(graph.EdgeID(i))
		if ea != eb {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea, eb)
		}
	}
	for u := 0; u < a.N(); u++ {
		if a.ID(graph.NodeID(u)) != b.ID(graph.NodeID(u)) {
			t.Fatal("IDs differ across same-seed runs")
		}
	}
}

// TestPortShuffling pins KeepPorts: with it the port labelling is
// canonical, so two seeds of a deterministic family agree on every
// endpoint and port; without it the seeded shuffle relabels ports.
func TestPortShuffling(t *testing.T) {
	type ends struct{ u, v, pu, pv int }
	layout := func(g *graph.Graph) []ends {
		out := make([]ends, g.M())
		for i, e := range g.Edges() {
			out[i] = ends{int(e.U), int(e.V), int(e.PU), int(e.PV)}
		}
		return out
	}
	a := layout(build(t, "complete", 10, 1, SeededOptions{KeepPorts: true, KeepIDs: true}))
	b := layout(build(t, "complete", 10, 2, SeededOptions{KeepPorts: true, KeepIDs: true}))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("KeepPorts: edge %d is %+v under seed 1, %+v under seed 2", i, a[i], b[i])
		}
	}
	c := layout(build(t, "complete", 10, 3, SeededOptions{KeepIDs: true}))
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("port shuffling had no effect (astronomically unlikely)")
	}
}

func TestKeepIDs(t *testing.T) {
	g := build(t, "path", 6, 20, SeededOptions{KeepIDs: true})
	for u := 0; u < g.N(); u++ {
		if g.ID(graph.NodeID(u)) != int64(u+1) {
			t.Fatal("KeepIDs should give identity IDs")
		}
	}
}

func TestFamilies(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []int{8, 33} {
			g := build(t, name, n, uint64(n), SeededOptions{})
			if err := reference.Validate(g); err != nil {
				t.Fatalf("family %s n=%d: %v", name, n, err)
			}
			if !reference.Connected(g) {
				t.Fatalf("family %s n=%d: not connected", name, n)
			}
			if g.N() < n/2 || g.N() > 2*n {
				t.Fatalf("family %s n=%d: produced %d nodes", name, n, g.N())
			}
		}
	}
}

// TestByName pins the registry lookup: every listed name builds, and an
// unknown name is an error that lists the registered families.
func TestByName(t *testing.T) {
	for _, name := range []string{"path", "ring", "grid", "tree", "random", "expander", "star", "caterpillar", "binarytree", "complete", "wheel", "lollipop"} {
		if _, err := BuildSeeded(name, 8, 1, SeededOptions{}); err != nil {
			t.Fatalf("BuildSeeded(%q): %v", name, err)
		}
	}
	_, err := BuildSeeded("nope", 8, 1, SeededOptions{})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "lollipop") {
		t.Fatalf("unknown family: error %v, want one naming it and the registry", err)
	}
}

// TestRegistryUnified pins the single registry: Names lists each family
// once, and every listed name builds, so -family sweeps and listings can
// never disagree.
func TestRegistryUnified(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("Names has %d entries, want 12", len(names))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("duplicate registered family %q", name)
		}
		seen[name] = true
		if _, err := BuildSeeded(name, 5, 1, SeededOptions{}); err != nil {
			t.Fatalf("registered family %q not buildable: %v", name, err)
		}
	}
	for _, want := range []string{"star", "wheel", "lollipop", "caterpillar", "binarytree", "complete"} {
		if !seen[want] {
			t.Fatalf("family %q missing from the registry", want)
		}
	}
	names[0] = "mutated"
	if Names()[0] != "path" {
		t.Fatal("Names returned the registry itself, not a copy")
	}
}

// TestGenerate covers valid builds: every family builds a valid graph
// at n = 10, and exact-size families build exactly n nodes.
func TestGenerate(t *testing.T) {
	for _, name := range Names() {
		g, err := BuildSeeded(name, 10, 7, SeededOptions{})
		if err != nil {
			t.Fatalf("%s n=10: %v", name, err)
		}
		if err := reference.Validate(g); err != nil {
			t.Fatalf("%s n=10: %v", name, err)
		}
	}
	if g, err := BuildSeeded("ring", 8, 1, SeededOptions{}); err != nil || g.N() != 8 {
		t.Fatalf("BuildSeeded(ring, 8) = %v, %v", g, err)
	}
}

// TestGeneratorPanics pins that bad sizes never panic: n < 1 is an
// error for every family, and sizes below a family's structural
// minimum clamp up to it.
func TestGeneratorPanics(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []int{0, -3} {
			if _, err := BuildSeeded(name, n, 7, SeededOptions{}); err == nil {
				t.Fatalf("%s n=%d: expected error", name, n)
			}
		}
	}
	// Sizes graph.CheckSize rejects must fail before anything is
	// allocated: each of these would otherwise ask for gigabytes at once
	// and kill the process, which no recover catches.
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"complete", 70000},   // n(n−1)/2 edges exceed the half-edge bound
		{"lollipop", 140000},  // its 70 000-node clique does too
		{"random", 400000000}, // 3n edges do
		{"path", 3000000000},  // n exceeds the int32 bound
	} {
		if _, err := BuildSeeded(tc.name, tc.n, 7, SeededOptions{}); err == nil {
			t.Fatalf("%s n=%d: expected a size error", tc.name, tc.n)
		}
	}
	for name, min := range map[string]int{"path": 1, "ring": 3, "star": 2, "caterpillar": 2, "wheel": 4, "lollipop": 4, "expander": 3} {
		if g := build(t, name, 1, 7, SeededOptions{}); g.N() != min {
			t.Fatalf("%s n=1 built %d nodes, want the minimum %d", name, g.N(), min)
		}
	}
}
