package lowerbound

import (
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
	"mstadvice/internal/reference"
	"mstadvice/internal/schemes/trivial"
	"mstadvice/internal/sim"
)

// The unique MST of G_n is the spine path, independent of the tie-heavy
// weight assignment (the paper's "Gn has a unique MST that is the path").
func TestGnUniqueMST(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9, 16} {
		gn, err := BuildGn(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := reference.Validate(gn.G); err != nil {
			t.Fatal(err)
		}
		if gn.G.N() != 2*n {
			t.Fatalf("n=%d: %d nodes", n, gn.G.N())
		}
		wantM := 1 + 2*(n-1) + (n-1)*(n-2) // bridge + spines + chords
		if gn.G.M() != wantM {
			t.Fatalf("n=%d: %d edges, want %d", n, gn.G.M(), wantM)
		}
		tree, err := mst.Kruskal(gn.G)
		if err != nil {
			t.Fatal(err)
		}
		spine := spinePath(gn)
		if len(spine) != len(tree) {
			t.Fatalf("n=%d: spine has %d edges, MST %d", n, len(spine), len(tree))
		}
		inTree := map[graph.EdgeID]bool{}
		for _, e := range tree {
			inTree[e] = true
		}
		for _, e := range spine {
			if !inTree[e] {
				t.Fatalf("n=%d: spine edge %d not in the MST", n, e)
			}
		}
		if err := mst.Verify(gn.G, tree); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// Weight ranges are disjoint and decreasing: a_k > b_i for k <= i-1 is the
// paper's key inequality; with our all-a_i assignment it reduces to
// a_i < a_(i-1).
func TestRangesDecreasing(t *testing.T) {
	omega := 20
	for i := 2; i < 15; i++ {
		if rangeLow(omega, i) >= rangeLow(omega, i-1) {
			t.Fatalf("range %d not below range %d", i, i-1)
		}
	}
	if rangeLow(omega, 15) <= 0 {
		t.Fatal("weights must stay positive for i < omega-1")
	}
}

// The family is genuinely indistinguishable at the target: identical
// per-port weights across instances, while the correct port takes k
// distinct values.
func TestFamilyIndistinguishable(t *testing.T) {
	n, i := 12, 4
	fam, err := NewFamily(n, i)
	if err != nil {
		t.Fatal(err)
	}
	if fam.K != n-i {
		t.Fatalf("K = %d, want %d", fam.K, n-i)
	}
	base := TargetView(fam.Instances[0], fam.Target)
	seen := map[int]bool{}
	for tIdx, g := range fam.Instances {
		if err := reference.Validate(g); err != nil {
			t.Fatalf("instance %d: %v", tIdx, err)
		}
		view := TargetView(g, fam.Target)
		if len(view) != len(base) {
			t.Fatalf("instance %d: degree changed", tIdx)
		}
		for p := range view {
			if view[p] != base[p] {
				t.Fatalf("instance %d: view differs at port %d", tIdx, p)
			}
		}
		if seen[fam.CorrectPort[tIdx]] {
			t.Fatalf("instance %d: correct port repeats", tIdx)
		}
		seen[fam.CorrectPort[tIdx]] = true
		// Each instance still has the spine path as its unique MST.
		tree, err := mst.Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := mst.Verify(g, tree); err != nil {
			t.Fatal(err)
		}
		// The correct port leads to u_(i-1), which is on the MST path:
		// the parent edge of the target when rooting anywhere in B.
		pp, err := mst.Root(g, tree, graph.NodeID(n)) // v_1
		if err != nil {
			t.Fatal(err)
		}
		if pp[fam.Target] != fam.CorrectPort[tIdx] {
			t.Fatalf("instance %d: MST parent port %d, family says %d",
				tIdx, pp[fam.Target], fam.CorrectPort[tIdx])
		}
	}
	if len(seen) != fam.K {
		t.Fatalf("only %d distinct correct ports", len(seen))
	}
}

// The pigeonhole experiment: with m bits the optimal pair serves exactly
// min(2^m, k) instances; full coverage therefore needs ⌈log k⌉ bits.
func TestPigeonhole(t *testing.T) {
	fam, err := NewFamily(14, 4) // k = 10
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m <= 5; m++ {
		res := fam.Experiment(m)
		if res.Served != res.Bound {
			t.Fatalf("m=%d: served %d != bound %d", m, res.Served, res.Bound)
		}
		want := fam.K
		if 1<<uint(m) < want {
			want = 1 << uint(m)
		}
		if res.Served != want {
			t.Fatalf("m=%d: served %d, want %d", m, res.Served, want)
		}
	}
	// Full coverage exactly at ⌈log k⌉ bits.
	full := fam.Experiment(graph.CeilLog2(fam.K))
	if full.Served != fam.K {
		t.Fatalf("⌈log k⌉ bits served only %d of %d", full.Served, fam.K)
	}
	if prev := fam.Experiment(graph.CeilLog2(fam.K) - 1); prev.Served >= fam.K {
		t.Fatal("fewer than ⌈log k⌉ bits should not cover the family")
	}
}

// Matching upper bound on the same instances: the trivial
// (⌈log n⌉, 0)-scheme answers all of them (it is given enough bits).
func TestTrivialSchemeCoversFamily(t *testing.T) {
	fam, err := NewFamily(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var s trivial.Scheme
	for tIdx, g := range fam.Instances {
		// Root in the B copy so the target's parent is u_(i-1).
		res, err := advice.Run(s, g, graph.NodeID(10), sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("instance %d: %v", tIdx, res.VerifyErr)
		}
		if res.ParentPorts[fam.Target] != fam.CorrectPort[tIdx] {
			t.Fatalf("instance %d: trivial scheme answered %d, want %d",
				tIdx, res.ParentPorts[fam.Target], fam.CorrectPort[tIdx])
		}
	}
}

// The average advice of the trivial scheme on G_n grows like log n —
// the measured face of the Ω(log n) average lower bound.
func TestTrivialAverageOnGn(t *testing.T) {
	var s trivial.Scheme
	var last float64
	for _, n := range []int{8, 16, 32} {
		gn, err := BuildGn(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		assignment, err := s.Advise(gn.G, 0)
		if err != nil {
			t.Fatal(err)
		}
		avg := advice.Measure(assignment, gn.G.N()).AvgBits
		if avg <= last {
			t.Fatalf("average advice did not grow with n: %f after %f", avg, last)
		}
		last = avg
	}
	if last < float64(graph.CeilLog2(32))-2 {
		t.Fatalf("average %f far below log n", last)
	}
}

func TestBuildGnErrors(t *testing.T) {
	if _, err := BuildGn(1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewFamily(10, 1); err == nil {
		t.Error("i=1 accepted")
	}
	if _, err := NewFamily(10, 10); err == nil {
		t.Error("i=n accepted")
	}
}

// spinePath returns the edge set of the unique MST of G_n (the path
// u_n ... u_1 v_1 ... v_n) for verification against the solvers.
func spinePath(gn *Gn) []graph.EdgeID {
	var edges []graph.EdgeID
	find := func(a, b graph.NodeID) graph.EdgeID {
		for _, e := range gn.G.Ports(a) {
			if gn.G.Other(e, a) == b {
				return e
			}
		}
		panic("lowerbound: spine edge missing")
	}
	n := len(gn.U)
	edges = append(edges, find(gn.U[0], gn.V[0]))
	for i := 1; i < n; i++ {
		edges = append(edges, find(gn.U[i], gn.U[i-1]))
		edges = append(edges, find(gn.V[i], gn.V[i-1]))
	}
	return edges
}
