// Pigeonhole lower bound for zero-round topology recognition, in the
// style of internal/lowerbound's Theorem 1 experiment: a family of k
// pairwise non-isomorphic instances whose target node has an identical
// zero-round view, so a decoder that spends m advice bits and no rounds
// can output at most 2^m distinct class tags over the family — it
// recognizes at most min(k, 2^m) of the instances. The trivial upper
// bound matches: ⌈log k⌉ bits of advice (an index into the family) serve
// all k. See DESIGN.md §3 (E12) for the measured experiment.

package topo

import (
	"fmt"

	"mstadvice/internal/graph"
)

// Family is the adversary's instance family: k rings of n unit-weight
// edges, each with one extra chord {2, 4+j} (j = 0..k-1). The chord slides
// around the far side of the ring, so the instances are pairwise
// non-isomorphic (theta graphs with three arm lengths 1, 2+j, n-2-j)
// while node 0 — two unit-weight ring ports, no chord endpoint within one
// hop — keeps a constant zero-round view.
type Family struct {
	// Target is node 0 in every instance.
	Target graph.NodeID
	// K is the family size.
	K int
	// Instances[j] is the ring with chord {2, 4+j}.
	Instances []*graph.Graph
	// Classes[j] is Class(Instances[j]); the family is only a valid
	// adversary when these are pairwise distinct (the tests pin it).
	Classes []int
}

// NewFamily builds the k-instance family on n-node rings. It needs
// n >= k+6 so that every chord endpoint 4+j stays at least two ring hops
// from node 0 (constant view) and the two ring arcs between the chord's
// endpoints have distinct lengths for every pair of instances
// (non-isomorphism).
func NewFamily(n, k int) (*Family, error) {
	if k < 2 {
		return nil, fmt.Errorf("topo: need family size k >= 2, got %d", k)
	}
	if n < k+6 {
		return nil, fmt.Errorf("topo: need n >= k+6 = %d for k = %d chord positions, got n = %d", k+6, k, n)
	}
	fam := &Family{Target: 0, K: k}
	for j := 0; j < k; j++ {
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1)
		}
		b.AddEdge(2, graph.NodeID(4+j), 1)
		g, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("topo: instance %d: %w", j, err)
		}
		fam.Instances = append(fam.Instances, g)
		fam.Classes = append(fam.Classes, Class(g))
	}
	return fam, nil
}

// Result of the pigeonhole experiment for one advice budget.
type Result struct {
	MBits  int // advice budget at the target node
	K      int // family size
	Served int // instances whose class the optimal oracle/decoder names
	Bound  int // pigeonhole ceiling min(K, 2^m)
}

// Experiment runs the optimal truncated oracle/decoder pair for a given
// advice budget m: the oracle writes the instance index (clamped to
// 2^m - 1) and the decoder outputs the class of the indexed instance. No
// zero-round pair can beat Served == min(K, 2^m) because the target's
// view is constant across the family and the classes are pairwise
// distinct.
func (fam *Family) Experiment(mBits int) Result {
	res := Result{MBits: mBits, K: fam.K}
	if mBits > 30 {
		mBits = 30
	}
	maxAdvice := 1 << uint(mBits)
	for j := range fam.Instances {
		// Oracle: clamp the instance index into m bits.
		a := j
		if a > maxAdvice-1 {
			a = maxAdvice - 1
		}
		// Decoder: output the class of instance a.
		if fam.Classes[a] == fam.Classes[j] {
			res.Served++
		}
	}
	if res.Bound = fam.K; maxAdvice < fam.K {
		res.Bound = maxAdvice
	}
	return res
}
