// Package lowerbound materialises Theorem 1 of Fraigniaud, Korman and
// Lebhar (SPAA 2007): for any m ≥ 0, every (m, 0)-advising scheme for MST
// has advices of average size Ω(log n), even with an all-powerful oracle.
//
// The witness is the paper's graph G_n (its Figure 1): two copies A, B of
// the complete graph K_n with distinguished Hamiltonian "spines"
// u_1..u_n and v_1..v_n, joined by the weight-0 edge {u_1, v_1}. Edge
// weights are drawn from the disjoint, decreasing ranges
// [a_i, b_i] = [ω²-(i+1)ω+1, ω²-iω]: the spine edge {u_i, u_(i-1)} and all
// chords {u_i, u_j} (j ≥ i+2) live in range i. Every chord is the strict
// maximum on the spine cycle it closes, so the unique MST is the path
// u_n ... u_1 v_1 ... v_n regardless of how values are chosen inside the
// ranges — in particular when all range-i weights are equal, which is the
// adversarial setting.
//
// Around one spine node u_i, the k = n-i range-i edges all look identical
// (same weight, distinguished only by their ports). The adversary builds k
// instances that differ only in which port carries the spine edge while
// u_i's entire zero-round view (weights by port) is unchanged. A decoder
// that runs zero rounds sees only (view, advice): with advice shorter than
// log2 k bits it can produce at most 2^m distinct outputs over the family,
// so it answers correctly on at most 2^m of the k instances — pigeonhole
// made executable. The package also shows the matching upper bound: the
// trivial scheme's ⌈log k⌉ bits serve all k instances.
//
// See DESIGN.md §3 (E2) for the experiment that measures the bound.
package lowerbound

import (
	"fmt"

	"mstadvice/internal/graph"
	"mstadvice/internal/localorder"
)

// Gn is the lower-bound graph plus bookkeeping to address its parts.
type Gn struct {
	G *graph.Graph
	// U[i] and V[i] hold the NodeIDs of u_(i+1) and v_(i+1) (0-indexed
	// slice over the paper's 1-indexed spine).
	U, V []graph.NodeID
	// Omega is the range parameter ω.
	Omega int
}

// rangeLow returns a_i = ω²-(i+1)ω+1 for the paper's 1-based range index.
func rangeLow(omega, i int) graph.Weight {
	return graph.Weight(omega*omega - (i+1)*omega + 1)
}

// BuildGn constructs G_n with all range-i weights equal to a_i (the
// adversarial tie-heavy assignment). The graph has 2n nodes. ω defaults to
// n+1 when omega <= n (ranges must stay positive and disjoint).
func BuildGn(n, omega int) (*Gn, error) {
	if n < 2 {
		return nil, fmt.Errorf("lowerbound: need n >= 2, got %d", n)
	}
	if omega <= n {
		omega = n + 1
	}
	b := graph.NewBuilder(2 * n)
	u := make([]graph.NodeID, n)
	v := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		u[i] = graph.NodeID(i)
		v[i] = graph.NodeID(n + i)
	}
	// The bridge.
	b.AddEdge(u[0], v[0], 0)
	// Spines: edge {x_i, x_(i-1)} in range i (paper 1-based, here i >= 2).
	for i := 2; i <= n; i++ {
		w := rangeLow(omega, i)
		b.AddEdge(u[i-1], u[i-2], w)
		b.AddEdge(v[i-1], v[i-2], w)
	}
	// Chords: {x_i, x_j}, j >= i+2, in range i.
	for i := 1; i <= n-2; i++ {
		w := rangeLow(omega, i)
		for j := i + 2; j <= n; j++ {
			b.AddEdge(u[i-1], u[j-1], w)
			b.AddEdge(v[i-1], v[j-1], w)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Gn{G: g, U: u, V: v, Omega: omega}, nil
}

// Family is the adversary's instance family at one spine node: k graphs
// that present the identical zero-round view at the target node while the
// spine edge hides behind a different port in each.
type Family struct {
	// Target is u_i in every instance (node indices are shared).
	Target graph.NodeID
	// I is the paper's spine index i (1-based), K = n - i the family size.
	I, K int
	// Instances[t] is the t-th rotation of the construction.
	Instances []*graph.Graph
	// CorrectPort[t] is the port at Target leading to u_(i-1) in
	// Instances[t] — the unique correct zero-round output.
	CorrectPort []int
}

// NewFamily builds the k = n-i instance family at spine node u_i
// (2 <= i <= n-1). Instance t rotates the targets of u_i's range-i edges
// by t positions; all other structure is fixed.
func NewFamily(n, i int) (*Family, error) {
	if i < 2 || i > n-1 {
		return nil, fmt.Errorf("lowerbound: spine index %d out of range [2, %d]", i, n-1)
	}
	k := n - i
	fam := &Family{I: i, K: k}
	for t := 0; t < k; t++ {
		g, correct, target, err := buildRotated(n, i, t)
		if err != nil {
			return nil, err
		}
		fam.Target = target
		fam.Instances = append(fam.Instances, g)
		fam.CorrectPort = append(fam.CorrectPort, correct)
	}
	return fam, nil
}

// buildRotated builds G_n with the range-i edge targets at u_i rotated by
// t. The rotation permutes which neighbour sits behind which of u_i's
// range-i ports; the port-wise weights at u_i are unchanged because all
// range-i weights are equal.
func buildRotated(n, i, t int) (*graph.Graph, int, graph.NodeID, error) {
	omega := n + 1
	b := graph.NewBuilder(2 * n)
	u := func(idx int) graph.NodeID { return graph.NodeID(idx - 1) }     // paper 1-based
	v := func(idx int) graph.NodeID { return graph.NodeID(n + idx - 1) } // paper 1-based
	target := u(i)

	// The rotated targets of u_i's range-i edges: slot s connects to
	// rot[(s+t) mod k] where rot[0] = u_(i-1) and rot[1..] = u_(i+2)..u_n.
	rot := make([]graph.NodeID, 0, n-i)
	rot = append(rot, u(i-1))
	for j := i + 2; j <= n; j++ {
		rot = append(rot, u(j))
	}
	k := len(rot)

	b.AddEdge(u(1), v(1), 0)
	// All spine edges except {u_i, u_(i-1)}, which is part of the rotation.
	for idx := 2; idx <= n; idx++ {
		w := rangeLow(omega, idx)
		if idx != i {
			b.AddEdge(u(idx), u(idx-1), w)
		}
		b.AddEdge(v(idx), v(idx-1), w)
	}
	// All chords except those at u_i in range i.
	for idx := 1; idx <= n-2; idx++ {
		w := rangeLow(omega, idx)
		for j := idx + 2; j <= n; j++ {
			if idx != i {
				b.AddEdge(u(idx), u(j), w)
			}
			b.AddEdge(v(idx), v(j), w)
		}
	}
	// u_i's range-i edges, inserted in slot order so that slot s gets
	// consecutive ports at u_i across all instances.
	wI := rangeLow(omega, i)
	for s := 0; s < k; s++ {
		b.AddEdge(target, rot[(s+t)%k], wI)
	}
	g, err := b.Build()
	if err != nil {
		return nil, 0, 0, err
	}
	// Slot s's port at target: the builder assigned ports in insertion
	// order, so the s-th range-i edge got the s-th port after the fixed
	// prefix; find the actual port of the edge to u_(i-1).
	port := -1
	for p := 0; p < g.Degree(target); p++ {
		if h := g.HalfAt(target, p); h.To == u(i-1) && g.Weight(h.Edge) == wI {
			port = p
			break
		}
	}
	if port == -1 {
		return nil, 0, 0, fmt.Errorf("lowerbound: spine edge not found at target")
	}
	return g, port, target, nil
}

// TargetView is the zero-round input of the target node: its port-wise
// weights. The tests check it is constant across the family, which is
// what makes the pigeonhole argument binding.
func TargetView(g *graph.Graph, target graph.NodeID) []graph.Weight {
	w := make([]graph.Weight, g.Degree(target))
	for p := range w {
		w[p] = g.Weight(g.HalfAt(target, p).Edge)
	}
	return w
}

// Result of the pigeonhole experiment for one advice budget.
type Result struct {
	MBits  int // advice budget at the target node
	K      int // family size
	Served int // instances answered correctly by the optimal oracle/decoder
	Bound  int // pigeonhole ceiling min(K, 2^m)
}

// Experiment runs the optimal truncated oracle/decoder pair on the family
// for a given advice budget m: the oracle writes the rotation index
// (clamped to 2^m - 1) and the decoder inverts it. No oracle/decoder pair
// can beat Served == min(K, 2^m) because the target's view is constant
// across the family; the test suite checks the view-constancy that makes
// the argument binding.
func (fam *Family) Experiment(mBits int) Result {
	res := Result{MBits: mBits, K: fam.K}
	if mBits > 30 {
		mBits = 30
	}
	maxAdvice := 1 << uint(mBits)
	for t, g := range fam.Instances {
		// Oracle: clamp the rotation index into m bits.
		a := t
		if a > maxAdvice-1 {
			a = maxAdvice - 1
		}
		// Decoder: u_i's range-i ports in local order carry slots 0..k-1;
		// rotation a says the spine edge is at slot (k - a) mod k ... the
		// slot whose target rotated onto u_(i-1), i.e. slot s with
		// (s + a) mod k == 0.
		s := (fam.K - a%fam.K) % fam.K
		port := fam.slotPort(g, s)
		if port == fam.CorrectPort[t] {
			res.Served++
		}
	}
	if res.Bound = fam.K; maxAdvice < fam.K {
		res.Bound = maxAdvice
	}
	return res
}

// slotPort maps a rotation slot to the target's port holding that slot's
// edge: the rotated edges are exactly the target's ports of weight a_i,
// taken in increasing port order (they were inserted consecutively).
func (fam *Family) slotPort(g *graph.Graph, s int) int {
	wI := rangeIWeight(g, fam.Target)
	idx := 0
	for p := 0; p < g.Degree(fam.Target); p++ {
		if g.Weight(g.HalfAt(fam.Target, p).Edge) == wI {
			if idx == s {
				return p
			}
			idx++
		}
	}
	return -1
}

// rangeIWeight is the (equal) weight a_i of the target's rotated edges.
// At u_i the single range-(i+1) edge (towards u_(i+1)) is strictly
// lighter, so a_i is the second-smallest distinct weight at the target.
func rangeIWeight(g *graph.Graph, target graph.NodeID) graph.Weight {
	view := TargetView(g, target)
	ports := localorder.PortsByLocal(view)
	lowest := view[ports[0]]
	for _, p := range ports[1:] {
		if w := view[p]; w != lowest {
			return w
		}
	}
	panic("lowerbound: target has a single distinct weight")
}
