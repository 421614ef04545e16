// Package gen generates the graph families used by the experiments:
// deterministic topologies (paths, rings, grids, tori, complete graphs,
// hypercubes, stars, trees, caterpillars) and randomised ones (random
// connected graphs, random trees, matching-union expanders). Every
// generator routes through a single assembler that randomises the port
// labelling (edge insertion order) and node identifiers, and assigns
// weights according to a WeightMode, so that all families share identical
// conventions.
//
// All randomness comes from an explicit *rand.Rand; given the same seed a
// generator reproduces the same graph bit for bit.
//
// See DESIGN.md §2.1 for the graph representation the generators emit
// and DESIGN.md §3 for the experiments that sweep these families.
package gen

import (
	"fmt"
	"math/rand"

	"mstadvice/internal/graph"
)

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

// Options control the shared assembly step.
type Options struct {
	Weights   WeightMode
	KeepPorts bool // do not shuffle edge insertion order
	KeepIDs   bool // use identity IDs 1..n instead of a random permutation
}

type edgePair struct{ u, v int }

// pairSet is an open-addressing hash set of node pairs used by the
// randomised generators for duplicate rejection. It replaces the former
// map[[2]int]bool: membership semantics are identical (so a given seed
// still produces the exact same graph), but the set lives in one
// power-of-two table of packed keys with linear probing — no per-insert
// allocations and no bucket pointers to chase.
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

// assemble turns a topology (node count + edge list) into a Graph.
func assemble(n int, edges []edgePair, rng *rand.Rand, opt Options) *graph.Graph {
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	if !opt.KeepPorts {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	weights := make([]graph.Weight, len(edges))
	switch opt.Weights {
	case WeightsDistinct:
		perm := rng.Perm(len(edges))
		for i := range weights {
			weights[i] = graph.Weight(perm[i] + 1)
		}
	case WeightsRandom:
		max := len(edges)/2 + 1
		for i := range weights {
			weights[i] = graph.Weight(rng.Intn(max) + 1)
		}
	case WeightsUnit:
		for i := range weights {
			weights[i] = 1
		}
	default:
		panic(fmt.Sprintf("gen: unknown weight mode %d", int(opt.Weights)))
	}
	b := graph.NewBuilder(n)
	if !opt.KeepIDs {
		ids := make([]int64, n)
		perm := rng.Perm(n)
		for i := range ids {
			ids[i] = int64(perm[i] + 1)
		}
		b.SetIDs(ids)
	}
	// The edge list is known up front: reserve it instead of growing it.
	b.Grow(len(edges))
	for _, i := range order {
		b.AddEdge(graph.NodeID(edges[i].u), graph.NodeID(edges[i].v), weights[i])
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("gen: internal error assembling graph: %v", err))
	}
	return g
}

// Path returns the n-node path v0-v1-...-v(n-1).
func Path(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 1)
	edges := make([]edgePair, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, edgePair{i, i + 1})
	}
	return assemble(n, edges, rng, opt)
}

// Ring returns the n-node cycle (n >= 3).
func Ring(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 3)
	edges := make([]edgePair, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, edgePair{i, (i + 1) % n})
	}
	return assemble(n, edges, rng, opt)
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int, rng *rand.Rand, opt Options) *graph.Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("gen: invalid grid %dx%d", rows, cols))
	}
	var edges []edgePair
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, edgePair{at(r, c), at(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, edgePair{at(r, c), at(r+1, c)})
			}
		}
	}
	return assemble(rows*cols, edges, rng, opt)
}

// Torus returns the rows x cols torus (wrap-around grid); rows, cols >= 3.
func Torus(rows, cols int, rng *rand.Rand, opt Options) *graph.Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("gen: invalid torus %dx%d", rows, cols))
	}
	var edges []edgePair
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges, edgePair{at(r, c), at(r, (c+1)%cols)})
			edges = append(edges, edgePair{at(r, c), at((r+1)%rows, c)})
		}
	}
	return assemble(rows*cols, edges, rng, opt)
}

// Complete returns the complete graph K_n.
func Complete(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 1)
	var edges []edgePair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edgePair{i, j})
		}
	}
	return assemble(n, edges, rng, opt)
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int, rng *rand.Rand, opt Options) *graph.Graph {
	if d < 1 || d > 20 {
		panic(fmt.Sprintf("gen: invalid hypercube dimension %d", d))
	}
	n := 1 << uint(d)
	var edges []edgePair
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << uint(b))
			if u < v {
				edges = append(edges, edgePair{u, v})
			}
		}
	}
	return assemble(n, edges, rng, opt)
}

// Star returns the n-node star with centre 0.
func Star(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 2)
	edges := make([]edgePair, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, edgePair{0, i})
	}
	return assemble(n, edges, rng, opt)
}

// BinaryTree returns the complete-ish binary tree on n nodes (node i has
// children 2i+1 and 2i+2 where they exist).
func BinaryTree(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 1)
	var edges []edgePair
	for i := 1; i < n; i++ {
		edges = append(edges, edgePair{(i - 1) / 2, i})
	}
	return assemble(n, edges, rng, opt)
}

// Caterpillar returns a path of ⌈n/2⌉ spine nodes with the remaining nodes
// attached as legs round-robin along the spine.
func Caterpillar(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 2)
	spine := (n + 1) / 2
	var edges []edgePair
	for i := 0; i+1 < spine; i++ {
		edges = append(edges, edgePair{i, i + 1})
	}
	for i := spine; i < n; i++ {
		edges = append(edges, edgePair{(i - spine) % spine, i})
	}
	return assemble(n, edges, rng, opt)
}

// RandomTree returns a uniformly random labelled tree on n nodes via a
// random Prüfer-like attachment: node i (i >= 1) attaches to a uniformly
// random earlier node.
func RandomTree(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 1)
	var edges []edgePair
	for i := 1; i < n; i++ {
		edges = append(edges, edgePair{rng.Intn(i), i})
	}
	return assemble(n, edges, rng, opt)
}

// RandomConnected returns a connected graph on n nodes with m edges:
// a random spanning tree plus m-(n-1) distinct random extra edges.
// m is clamped to [n-1, n(n-1)/2].
func RandomConnected(n, m int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 1)
	maxM := n * (n - 1) / 2
	if m < n-1 {
		m = n - 1
	}
	if m > maxM {
		m = maxM
	}
	seen := newPairSet(m)
	edges := make([]edgePair, 0, m)
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if !seen.add(u, v) {
			return false
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, edgePair{u, v})
		return true
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[rng.Intn(i)], perm[i])
	}
	for len(edges) < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	return assemble(n, edges, rng, opt)
}

// Lollipop returns a clique on ⌈n/2⌉ nodes with a path of the remaining
// nodes attached — the classic adversarial input for fragment-growing
// distributed MST algorithms (a low-diameter core that must wait for a
// linear-diameter tail). n >= 4.
func Lollipop(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 4)
	clique := (n + 1) / 2
	var edges []edgePair
	for i := 0; i < clique; i++ {
		for j := i + 1; j < clique; j++ {
			edges = append(edges, edgePair{i, j})
		}
	}
	for i := clique; i < n; i++ {
		prev := i - 1
		if i == clique {
			prev = 0
		}
		edges = append(edges, edgePair{prev, i})
	}
	return assemble(n, edges, rng, opt)
}

// Wheel returns the n-node wheel: a hub (node 0) joined to every node of
// an (n-1)-cycle. n >= 4.
func Wheel(n int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 4)
	var edges []edgePair
	for i := 1; i < n; i++ {
		edges = append(edges, edgePair{0, i})
		next := i + 1
		if next == n {
			next = 1
		}
		edges = append(edges, edgePair{i, next})
	}
	return assemble(n, edges, rng, opt)
}

// Expander returns the union of k random Hamiltonian cycles on n nodes
// (duplicate edges dropped): a standard low-diameter, near-regular
// expander-like family. n >= 3, k >= 1.
func Expander(n, k int, rng *rand.Rand, opt Options) *graph.Graph {
	requireN(n, 3)
	if k < 1 {
		k = 1
	}
	seen := newPairSet(k * n)
	edges := make([]edgePair, 0, k*n)
	for c := 0; c < k; c++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u, v := perm[i], perm[(i+1)%n]
			if u > v {
				u, v = v, u
			}
			if u != v && seen.add(u, v) {
				edges = append(edges, edgePair{u, v})
			}
		}
	}
	return assemble(n, edges, rng, opt)
}

// SizeError reports an invalid size parameter. The raw generators panic
// with it; Family.Generate and Build recover it into an ordinary error so
// CLI boundaries can print a usage message instead of a stack trace.
type SizeError struct {
	Min, Got int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("gen: need at least %d nodes, got %d", e.Min, e.Got)
}

func requireN(n, min int) {
	if n < min {
		panic(&SizeError{Min: min, Got: n})
	}
}

// Family is a named graph family with a single size parameter, used to
// sweep experiments uniformly across topologies.
type Family struct {
	Name string
	// MinN is the smallest meaningful size; Build clamps n up to it so
	// sweeps starting below it stay well defined.
	MinN int
	// Build returns a graph with approximately n nodes (exact for most
	// families; grids round to the nearest full square, and families
	// with a structural minimum clamp n up to MinN).
	Build func(n int, rng *rand.Rand, opt Options) *graph.Graph
}

// Generate is the error-returning entry point of a family: it validates
// the size, runs Build, and converts generator panics (bad sizes,
// internal assembly failures) into errors.
func (f Family) Generate(n int, rng *rand.Rand, opt Options) (g *graph.Graph, err error) {
	if f.Build == nil {
		return nil, fmt.Errorf("gen: family %q has no builder", f.Name)
	}
	if n < 1 {
		return nil, fmt.Errorf("gen: family %q: need at least 1 node, got %d", f.Name, n)
	}
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case error:
				err = fmt.Errorf("gen: family %q with n=%d: %w", f.Name, n, v)
			default:
				err = fmt.Errorf("gen: family %q with n=%d: %v", f.Name, n, v)
			}
		}
	}()
	return f.Build(n, rng, opt), nil
}

// registry is the single source of truth for the named families: both
// Families and ByName read it, so listings and lookups can never
// disagree. makeRegistry wraps every entry's raw builder so that MinN is
// also the single source of the clamping.
var registry = makeRegistry()

func makeRegistry() []Family {
	fams := []Family{
		{"path", 1, Path},
		{"ring", 3, Ring},
		{"grid", 1, func(n int, rng *rand.Rand, opt Options) *graph.Graph {
			side := 1
			for (side+1)*(side+1) <= n {
				side++
			}
			if side < 2 {
				side = 2
			}
			return Grid(side, side, rng, opt)
		}},
		{"tree", 1, RandomTree},
		{"random", 1, func(n int, rng *rand.Rand, opt Options) *graph.Graph {
			return RandomConnected(n, 3*n, rng, opt)
		}},
		{"expander", 3, func(n int, rng *rand.Rand, opt Options) *graph.Graph {
			return Expander(n, 3, rng, opt)
		}},
		{"star", 2, Star},
		{"caterpillar", 2, Caterpillar},
		{"binarytree", 1, BinaryTree},
		{"complete", 1, Complete},
		{"wheel", 4, Wheel},
		{"lollipop", 4, Lollipop},
	}
	for i := range fams {
		fams[i].Build = clamped(fams[i].MinN, fams[i].Build)
	}
	return fams
}

// clamped lifts a raw generator with a structural minimum size into a
// family builder that clamps n up to that minimum.
func clamped(min int, build func(int, *rand.Rand, Options) *graph.Graph) func(int, *rand.Rand, Options) *graph.Graph {
	return func(n int, rng *rand.Rand, opt Options) *graph.Graph {
		return build(atLeast(n, min), rng, opt)
	}
}

// Families returns every registered family, in registry order.
func Families() []Family {
	return append([]Family(nil), registry...)
}

// Names returns the registered family names, in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, f := range registry {
		names[i] = f.Name
	}
	return names
}

func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}

// ByName returns the family with the given name. Every name it accepts
// is listed by Families — they read the same registry.
func ByName(name string) (Family, error) {
	for _, f := range registry {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("gen: unknown family %q (have %v)", name, Names())
}

// Build is the error-returning convenience entry point: look a family up
// by name and generate an instance, with all failures (unknown family,
// bad size) reported as errors rather than panics.
func Build(name string, n int, rng *rand.Rand, opt Options) (*graph.Graph, error) {
	f, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return f.Generate(n, rng, opt)
}
