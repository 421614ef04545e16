// Package unionfind implements a disjoint-set forest with union by size
// and path compression. It is the fragment bookkeeping substrate for
// mst.Kruskal and the Borůvka phase decomposition.
//
// See DESIGN.md §2.2 (Borůvka phases) and §2.4 (the sensitivity
// oracle's interval union-find variant) for the call sites.
package unionfind

import (
	"fmt"
	"math"
)

// DSU is a disjoint-set union over elements 0..n-1. The zero value is
// unusable; create one with New. Elements and set sizes are stored as
// int32, the bound graph.Graph puts on its node count.
type DSU struct {
	parent []int32
	size   []int32
	sets   int
}

// New returns a DSU with n singleton sets. n must lie in
// [0, math.MaxInt32].
func New(n int) *DSU {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("unionfind: size %d outside [0, %d]", n, math.MaxInt32))
	}
	d := &DSU{parent: make([]int32, n), size: make([]int32, n), sets: n}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Find returns the canonical representative of x's set.
func (d *DSU) Find(x int) int {
	root := int32(x)
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for i := int32(x); d.parent[i] != root; {
		d.parent[i], i = root, d.parent[i]
	}
	return int(root)
}

// Union merges the sets of a and b. It returns true if they were distinct.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	d.size[ra] += d.size[rb]
	d.sets--
	return true
}

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b int) bool { return d.Find(a) == d.Find(b) }

// SizeOf returns the size of x's set.
func (d *DSU) SizeOf(x int) int { return int(d.size[d.Find(x)]) }
