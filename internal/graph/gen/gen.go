// Package gen generates the graph families used by the tests, the
// experiments, the commands and the benchmark: deterministic topologies
// (paths, rings, grids, stars, trees, caterpillars, complete graphs,
// wheels, lollipops) and randomised ones (random connected graphs,
// random trees, matching-union expanders). BuildSeeded is the one
// generator: every family routes through a single assembler that
// randomises the port labelling and node identifiers and assigns
// weights according to a WeightMode, and one (family, n, seed) names
// one graph, bit for bit, on any worker count.
//
// See DESIGN.md §2.1 for the graph representation the generators emit,
// DESIGN.md §2.12 for the seeded construction and DESIGN.md §3 for the
// experiments that sweep these families.
package gen

import "fmt"

// WeightMode selects how edge weights are assigned.
type WeightMode int

const (
	// WeightsDistinct assigns a random permutation of 1..m: globally
	// distinct weights, the classic unique-MST regime.
	WeightsDistinct WeightMode = iota
	// WeightsRandom assigns independent uniform weights in [1, ~m/2],
	// producing occasional ties (never two equal weights at one node is NOT
	// guaranteed).
	WeightsRandom
	// WeightsUnit assigns weight 1 to every edge: maximal ties; the MST is
	// determined entirely by the tie-breaking order.
	WeightsUnit
)

func (m WeightMode) String() string {
	switch m {
	case WeightsDistinct:
		return "distinct"
	case WeightsRandom:
		return "random"
	case WeightsUnit:
		return "unit"
	default:
		return fmt.Sprintf("WeightMode(%d)", int(m))
	}
}

// pairSet is an open-addressing hash set of node pairs: the seeded
// expander's duplicate rejection above 2²⁰ nodes, where its packed sort
// keys no longer fit. The set lives in one power-of-two table of packed
// keys with linear probing — no per-insert allocations and no bucket
// pointers to chase.
type pairSet struct {
	table []uint64
	mask  uint64
	used  int
}

// newPairSet sizes the table for the expected number of pairs at a load
// factor below 1/2.
func newPairSet(expected int) *pairSet {
	size := 16
	for size < 2*expected+1 {
		size <<= 1
	}
	return &pairSet{table: make([]uint64, size), mask: uint64(size - 1)}
}

// add inserts the unordered pair {u, v} (u != v) and reports whether it
// was absent. Keys are offset by one so the zero word means "empty".
func (s *pairSet) add(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	key := (uint64(u)<<32 | uint64(uint32(v))) + 1
	// Fibonacci hashing spreads the packed key over the table.
	i := (key * 0x9E3779B97F4A7C15) & s.mask
	for {
		switch s.table[i] {
		case 0:
			if 2*(s.used+1) > len(s.table) {
				s.grow()
				return s.add(u, v) // table moved; re-probe
			}
			s.table[i] = key
			s.used++
			return true
		case key:
			return false
		}
		i = (i + 1) & s.mask
	}
}

func (s *pairSet) grow() {
	old := s.table
	s.table = make([]uint64, 2*len(old))
	s.mask = uint64(len(s.table) - 1)
	s.used = 0
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := (key * 0x9E3779B97F4A7C15) & s.mask
		for s.table[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.table[i] = key
		s.used++
	}
}

// names lists the registered families, in registry order.
var names = []string{
	"path", "ring", "grid", "tree", "random", "expander",
	"star", "caterpillar", "binarytree", "complete", "wheel", "lollipop",
}

// Names returns the registered family names, in registry order.
func Names() []string {
	return append([]string(nil), names...)
}

func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}
