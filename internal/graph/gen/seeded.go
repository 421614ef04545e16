package gen

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"mstadvice/internal/graph"
	"mstadvice/internal/par"
)

// This file is the parallel seeded generation path for the 12 families:
// every random quantity is a pointwise function of (seed, purpose,
// index), and the whole build runs on the worker pool with
// byte-identical output for any worker count.
//
// Three primitives carry the construction (DESIGN.md §2.12):
//
//   - counter-mode SplitMix64 substreams: draw i of the stream keyed
//     (seed, purpose) is finalize(key + (i+1)·golden) — any worker can
//     evaluate any draw with no shared state, and each stream is a
//     bijection of the counter, so draws never collide within a stream;
//   - Feistel cycle-walking bijections over [0, N): pointwise random
//     permutations (with a pointwise inverse) for ID relabelling,
//     weight permutations, port shuffling, and distinct-pair sampling;
//   - sort-based assembly: ports are ranks in a par.SortU64 pass over
//     packed (node, sequence) half-edge keys, and the CSR is scattered
//     by graph.FromEdgeList — disjoint writes everywhere.
//
// The output of this path is pinned by its goldens (seeded_test.go).

// splitmixGolden is the SplitMix64 increment; mix is its finalizer, a
// bijective avalanche (same constants as internal/sim's latency model).
const splitmixGolden = 0x9E3779B97F4A7C15

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Stream purposes: each independent random quantity of a build draws
// from its own substream, so adding a purpose never perturbs another.
const (
	purposeIDs    = 1
	purposePorts  = 2
	purposeWeight = 3
	purposeTree   = 4
	purposePairs  = 5
	purposeCycle  = 6
	purposeAttach = 7
)

// streamKey derives the substream key for (seed, purpose).
func streamKey(seed uint64, purpose uint64) uint64 {
	return mix(seed ^ mix(purpose*splitmixGolden))
}

// draw returns draw i of the substream with the given key: SplitMix64 in
// counter mode, pointwise-evaluable from any worker.
func draw(key uint64, i uint64) uint64 {
	return mix(key + (i+1)*splitmixGolden)
}

// drawMod maps draw i into [0, n). The modulo bias is < n/2⁶⁴ — orders
// of magnitude below the statistical tolerances the generator tests
// check — and, unlike rejection sampling, keeps the draw pointwise.
func drawMod(key uint64, i uint64, n int) int {
	return int(draw(key, i) % uint64(n))
}

// bijection is a pseudorandom permutation of [0, n) built as a 4-round
// Feistel network over the smallest even-bit-width domain covering n,
// with cycle-walking to stay inside [0, n): out-of-range images are
// re-encrypted until they land in range, which preserves bijectivity.
// The domain is < 4n, so a walk takes < 4 steps in expectation. Both
// directions are pointwise, which is what lets the port scatter invert
// the shuffle without materialising it.
type bijection struct {
	n     uint64
	half  uint // bits per Feistel half
	mask  uint64
	round [4]uint64
}

func newBijection(n int, key uint64) bijection {
	if n < 1 {
		panic(fmt.Sprintf("gen: bijection over [0, %d)", n))
	}
	width := bits.Len64(uint64(n - 1))
	if width < 2 {
		width = 2
	}
	half := uint((width + 1) / 2)
	b := bijection{n: uint64(n), half: half, mask: 1<<half - 1}
	for r := range b.round {
		b.round[r] = draw(key, uint64(r))
	}
	return b
}

func (b bijection) encryptOnce(x uint64) uint64 {
	l, r := x>>b.half, x&b.mask
	for k := 0; k < 4; k++ {
		l, r = r, l^(mix(r+b.round[k])&b.mask)
	}
	return l<<b.half | r
}

func (b bijection) decryptOnce(x uint64) uint64 {
	l, r := x>>b.half, x&b.mask
	for k := 3; k >= 0; k-- {
		l, r = r^(mix(l+b.round[k])&b.mask), l
	}
	return l<<b.half | r
}

// apply returns the image of x under the permutation.
func (b bijection) apply(x int) int {
	v := uint64(x)
	for {
		v = b.encryptOnce(v)
		if v < b.n {
			return int(v)
		}
	}
}

// invert returns the preimage of x under the permutation.
func (b bijection) invert(x int) int {
	v := uint64(x)
	for {
		v = b.decryptOnce(v)
		if v < b.n {
			return int(v)
		}
	}
}

// SeededOptions control BuildSeeded. Workers sizes the pool used during
// generation; it never affects the generated bytes.
type SeededOptions struct {
	Weights   WeightMode
	KeepPorts bool // identity port labelling instead of a seeded shuffle
	KeepIDs   bool // identity IDs 1..n instead of a seeded permutation
	Workers   int
}

// seqEdge is an edge endpoint pair plus its position in the generation
// sequence (the seeded analogue of insertion order).
type seqEdge struct {
	u, v int
}

// edgeList produces the endpoint pairs of a family as a pointwise
// function: count is the edge count, at(i) the i-th pair. Deterministic
// families enumerate their structure directly; randomised families
// compose the substream primitives. All pairs are distinct and free of
// self-loops by construction (see the per-family notes).
type edgeList struct {
	n     int
	count int
	at    func(i int) seqEdge
}

// seededFamily builds the edge list of the named family. Families with
// a structural minimum size clamp n up to it, and grid rounds n down to
// a square of side at least 2. n must not exceed the int32 bound, which
// keeps every edge count exact in int arithmetic. The randomised
// families check their size before they allocate; the others allocate
// nothing here.
func seededFamily(name string, n int, seed uint64, workers int) (edgeList, error) {
	switch name {
	case "path":
		n = atLeast(n, 1)
		return edgeList{n, n - 1, func(i int) seqEdge { return seqEdge{i, i + 1} }}, nil
	case "ring":
		n = atLeast(n, 3)
		return edgeList{n, n, func(i int) seqEdge { return seqEdge{i, (i + 1) % n} }}, nil
	case "grid":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		if side < 2 {
			side = 2
		}
		s := side
		horiz := s * (s - 1)
		return edgeList{s * s, 2 * horiz, func(i int) seqEdge {
			if i < horiz { // row r, column c to c+1
				r, c := i/(s-1), i%(s-1)
				return seqEdge{r*s + c, r*s + c + 1}
			}
			j := i - horiz // row r to r+1, column c
			r, c := j/s, j%s
			return seqEdge{r*s + c, (r+1)*s + c}
		}}, nil
	case "star":
		n = atLeast(n, 2)
		return edgeList{n, n - 1, func(i int) seqEdge { return seqEdge{0, i + 1} }}, nil
	case "caterpillar":
		n = atLeast(n, 2)
		spine := (n + 1) / 2
		return edgeList{n, n - 1, func(i int) seqEdge {
			if i < spine-1 {
				return seqEdge{i, i + 1}
			}
			j := i - (spine - 1) // leg j hangs off spine node j mod spine
			return seqEdge{j % spine, spine + j}
		}}, nil
	case "binarytree":
		n = atLeast(n, 1)
		return edgeList{n, n - 1, func(i int) seqEdge { return seqEdge{i / 2, i + 1} }}, nil
	case "complete":
		n = atLeast(n, 1)
		return completeEdges(n), nil
	case "wheel":
		n = atLeast(n, 4)
		return edgeList{n, 2 * (n - 1), func(i int) seqEdge {
			if i < n-1 { // spokes
				return seqEdge{0, i + 1}
			}
			j := i - (n - 1) // rim
			next := j + 2
			if next == n {
				next = 1
			}
			return seqEdge{j + 1, next}
		}}, nil
	case "lollipop":
		n = atLeast(n, 4)
		clique := (n + 1) / 2
		core := completeEdges(clique)
		return edgeList{n, core.count + (n - clique), func(i int) seqEdge {
			if i < core.count {
				return core.at(i)
			}
			j := i - core.count // tail node clique+j
			if j == 0 {
				return seqEdge{0, clique}
			}
			return seqEdge{clique + j - 1, clique + j}
		}}, nil
	case "tree":
		n = atLeast(n, 1)
		tkey := streamKey(seed, purposeTree)
		return edgeList{n, n - 1, func(i int) seqEdge {
			// node i+1 attaches to a uniform earlier node.
			return seqEdge{drawMod(tkey, uint64(i), i+1), i + 1}
		}}, nil
	case "random":
		n = atLeast(n, 1)
		if err := checkSize(name, n, 3*n); err != nil {
			return edgeList{}, err
		}
		return randomConnectedEdges(n, 3*n, seed, workers)
	case "expander":
		n = atLeast(n, 3)
		// The k·n cycle edges bound the deduplicated count, and the
		// dedup pass materialises all of them.
		if err := checkSize(name, n, 3*n); err != nil {
			return edgeList{}, err
		}
		return expanderEdges(n, 3, seed, workers)
	default:
		return edgeList{}, fmt.Errorf("gen: unknown family %q (have %v)", name, Names())
	}
}

// checkSize is graph.CheckSize on a family's node and edge counts.
func checkSize(name string, n, m int) error {
	if err := graph.CheckSize(n, m); err != nil {
		return fmt.Errorf("gen: family %q: %w", name, err)
	}
	return nil
}

// completeEdges enumerates K_n's pairs in row order: all pairs (0, v),
// then (1, v), ... Unranking binary-searches the row prefix sums, so
// at(i) stays pointwise at O(log n).
func completeEdges(n int) edgeList {
	return edgeList{n, n * (n - 1) / 2, func(i int) seqEdge { return pairAt(n, i) }}
}

// pairAt unranks pair index i of K_n in row order: row u holds n-1-u
// pairs (u, u+1..n-1), so pairs before row u total u·(n-1) − u(u−1)/2;
// binary search finds the largest u whose prefix is ≤ i. O(log n),
// pointwise.
func pairAt(n, i int) seqEdge {
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid*(n-1)-mid*(mid-1)/2 <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	u := lo
	return seqEdge{u, u + 1 + (i - (u*(n-1) - u*(u-1)/2))}
}

// randomConnectedEdges builds the random family's m-edge graph: a
// random attachment tree over a seeded node permutation, plus extra
// edges sampled without replacement from the non-tree pairs.
//
// Distinctness is free: the extras walk a Feistel bijection over the
// n(n-1)/2 pair space in sequence order, skipping pairs that are tree
// edges. A window of needed+(n-1) images always contains enough — the
// bijection can hit each of the n-1 tree pairs at most once — so the
// selection is a single deterministic prefix-sum pass, no rejection
// loop, no hash set.
func randomConnectedEdges(n, m int, seed uint64, workers int) (edgeList, error) {
	maxM := n * (n - 1) / 2
	if m < n-1 {
		m = n - 1
	}
	if m > maxM {
		m = maxM
	}
	if n == 1 {
		return edgeList{1, 0, func(int) seqEdge { panic("no edges") }}, nil
	}
	perm := newBijection(n, streamKey(seed, purposeAttach))
	tkey := streamKey(seed, purposeTree)
	treeAt := func(i int) seqEdge {
		u := perm.apply(drawMod(tkey, uint64(i), i+1))
		v := perm.apply(i + 1)
		if u > v {
			u, v = v, u
		}
		return seqEdge{u, v}
	}
	needed := m - (n - 1)
	var extras []seqEdge
	if needed > 0 {
		// Sorted tree-pair keys for membership tests during the walk.
		treeKeys := make([]uint64, n-1)
		par.Ranges(workers, n-1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e := treeAt(i)
				treeKeys[i] = uint64(e.u)<<32 | uint64(uint32(e.v))
			}
		})
		par.SortU64(workers, treeKeys)
		pairPerm := newBijection(maxM, streamKey(seed, purposePairs))
		window := needed + (n - 1)
		if window > maxM {
			window = maxM
		}
		// One parallel pass over the window computes every candidate pair
		// (each bijection image evaluated exactly once, stored packed) and
		// counts survivors per chunk; a chunked prefix-sum scatter then
		// compacts the kept pairs in sequence order. Chunks are indexed by
		// position, not worker, so the result is schedule-independent.
		// Endpoints fit 31 bits, so all-ones cannot collide with a pair key.
		const dropped = ^uint64(0)
		pairs := make([]uint64, window)
		const chunk = 8192
		nChunks := (window + chunk - 1) / chunk
		counts := make([]int32, nChunks+1)
		par.Ranges(workers, nChunks, func(_, clo, chi int) {
			for c := clo; c < chi; c++ {
				lo, hi := c*chunk, (c+1)*chunk
				if hi > window {
					hi = window
				}
				kept := int32(0)
				for i := lo; i < hi; i++ {
					e := pairAt(n, pairPerm.apply(i))
					key := uint64(e.u)<<32 | uint64(uint32(e.v))
					if sortedContains(treeKeys, key) {
						pairs[i] = dropped
					} else {
						pairs[i] = key
						kept++
					}
				}
				counts[c+1] = kept
			}
		})
		for c := 0; c < nChunks; c++ {
			counts[c+1] += counts[c]
		}
		if int(counts[nChunks]) < needed {
			return edgeList{}, fmt.Errorf("gen: random family window exhausted (%d/%d extras)", counts[nChunks], needed)
		}
		all := make([]seqEdge, counts[nChunks])
		par.Ranges(workers, nChunks, func(_, clo, chi int) {
			for c := clo; c < chi; c++ {
				lo, hi := c*chunk, (c+1)*chunk
				if hi > window {
					hi = window
				}
				k := counts[c]
				for i := lo; i < hi; i++ {
					if pairs[i] != dropped {
						all[k] = seqEdge{int(pairs[i] >> 32), int(uint32(pairs[i]))}
						k++
					}
				}
			}
		})
		extras = all[:needed]
	}
	return edgeList{n, m, func(i int) seqEdge {
		if i < n-1 {
			return treeAt(i)
		}
		return extras[i-(n-1)]
	}}, nil
}

func sortedContains(keys []uint64, key uint64) bool {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(keys) && keys[lo] == key
}

// expanderEdges builds the expander family: k seeded Hamiltonian
// cycles with duplicates dropped, first occurrence (in cycle-major
// sequence order) winning. Within one cycle the n consecutive pairs are
// distinct, so only the cross-cycle dedup needs work: a par.SortU64 pass
// over (pair, sequence) keys groups duplicates, a second pass restores
// sequence order of the survivors. The packed key spends 2·⌈log₂ n⌉ bits
// on the pair and ⌈log₂ kn⌉ on the sequence, which bounds this path to
// n ≤ 2²⁰ — far above every sweep; beyond it a one-worker pairSet pass
// produces the identical result.
func expanderEdges(n, k int, seed uint64, workers int) (edgeList, error) {
	cycles := make([]bijection, k)
	for c := range cycles {
		cycles[c] = newBijection(n, streamKey(seed, purposeCycle+uint64(c)*16))
	}
	total := k * n
	candAt := func(s int) seqEdge { // candidate s in (cycle, position) order
		c, i := s/n, s%n
		u, v := cycles[c].apply(i), cycles[c].apply((i+1)%n)
		if u > v {
			u, v = v, u
		}
		return seqEdge{u, v}
	}
	nodeBits := uint(bits.Len64(uint64(n - 1)))
	seqBits := uint(bits.Len64(uint64(total - 1)))
	var order []int32 // surviving candidate sequence numbers, in order
	if 2*nodeBits+seqBits <= 64 {
		workers = par.Workers(workers)
		keys := make([]uint64, total)
		par.Ranges(workers, total, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				e := candAt(s)
				keys[s] = (uint64(e.u)<<nodeBits|uint64(e.v))<<seqBits | uint64(s)
			}
		})
		par.SortU64(workers, keys)
		// Equal pairs are adjacent, ordered by sequence: keep group heads.
		heads := make([]int32, total)
		par.Ranges(workers, total, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i == 0 || keys[i]>>seqBits != keys[i-1]>>seqBits {
					heads[i] = 1
				}
			}
		})
		seqMask := uint64(1)<<seqBits - 1
		surv := make([]uint64, 0, total)
		for i, h := range heads {
			if h == 1 {
				surv = append(surv, keys[i]&seqMask)
			}
		}
		par.SortU64(workers, surv)
		order = make([]int32, len(surv))
		for i, s := range surv {
			order[i] = int32(s)
		}
	} else {
		seen := newPairSet(total)
		for s := 0; s < total; s++ {
			e := candAt(s)
			if seen.add(e.u, e.v) {
				order = append(order, int32(s))
			}
		}
	}
	return edgeList{n, len(order), func(i int) seqEdge { return candAt(int(order[i])) }}, nil
}

// BuildSeeded generates a graph of the named family with the parallel
// seeded pipeline. The same (name, n, seed, Weights, KeepPorts, KeepIDs)
// always produce the same graph, bit for bit, regardless of Workers or
// GOMAXPROCS; the bytes are pinned by goldens in seeded_test.go. An
// unknown family, n < 1, or a node or edge count graph.CheckSize
// rejects is an error returned before anything is allocated.
func BuildSeeded(name string, n int, seed uint64, opt SeededOptions) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: family %q: need at least 1 node, got %d", name, n)
	}
	if err := checkSize(name, n, 0); err != nil {
		return nil, err
	}
	workers := par.Workers(opt.Workers)
	list, err := seededFamily(name, n, seed, workers)
	if err != nil {
		return nil, err
	}
	if err := checkSize(name, list.n, list.count); err != nil {
		return nil, err
	}
	n = list.n
	m := list.count
	edges := make([]graph.Edge, m)

	// Endpoints and weights, pointwise over edges.
	wkey := streamKey(seed, purposeWeight)
	var wperm bijection
	if opt.Weights == WeightsDistinct && m > 0 {
		wperm = newBijection(m, wkey)
	}
	wmax := m/2 + 1
	par.Ranges(workers, m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := list.at(i)
			var w graph.Weight
			switch opt.Weights {
			case WeightsDistinct:
				w = graph.Weight(wperm.apply(i) + 1)
			case WeightsRandom:
				w = graph.Weight(int(draw(wkey, uint64(i))%uint64(wmax)) + 1)
			case WeightsUnit:
				w = 1
			default:
				panic(fmt.Sprintf("gen: unknown weight mode %d", int(opt.Weights)))
			}
			edges[i] = graph.Edge{U: graph.NodeID(e.u), V: graph.NodeID(e.v), W: w}
		}
	})

	// Ports: rank of the edge's shuffled sequence number among the edges
	// at each endpoint. One sort of packed (node, sequence, side) keys
	// yields every rank as position − CSR offset; the sequence number is
	// inverted back to the edge to scatter the rank into its record.
	sperm := bijection{}
	if !opt.KeepPorts && m > 0 {
		sperm = newBijection(m, streamKey(seed, purposePorts))
	}
	seqOf := func(i int) int {
		if opt.KeepPorts || m == 0 {
			return i
		}
		return sperm.apply(i)
	}
	edgeOf := func(s int) int {
		if opt.KeepPorts || m == 0 {
			return s
		}
		return sperm.invert(s)
	}
	halfKeys := make([]uint64, 2*m)
	deg := make([]int32, n)
	par.Ranges(workers, m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := uint64(seqOf(i))
			e := edges[i]
			halfKeys[2*i] = uint64(e.U)<<33 | s<<1
			halfKeys[2*i+1] = uint64(e.V)<<33 | s<<1 | 1
			atomic.AddInt32(&deg[e.U], 1)
			atomic.AddInt32(&deg[e.V], 1)
		}
	})
	par.SortU64(workers, halfKeys)
	off := make([]int32, n+1)
	acc := int32(0)
	for u := 0; u < n; u++ {
		off[u] = acc
		acc += deg[u]
	}
	off[n] = acc
	par.Ranges(workers, 2*m, func(_, lo, hi int) {
		for pos := lo; pos < hi; pos++ {
			key := halfKeys[pos]
			u := int(key >> 33)
			i := edgeOf(int(key << 31 >> 32)) // middle 32 bits: sequence number
			port := int32(pos) - off[u]
			if key&1 == 0 {
				edges[i].PU = port
			} else {
				edges[i].PV = port
			}
		}
	})

	// IDs: seeded permutation of 1..n (identity under KeepIDs).
	var ids []int64
	if !opt.KeepIDs {
		idperm := newBijection(n, streamKey(seed, purposeIDs))
		ids = make([]int64, n)
		par.Ranges(workers, n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				ids[u] = int64(idperm.apply(u) + 1)
			}
		})
	}
	g, err := graph.FromEdgeList(n, ids, edges, workers)
	if err != nil {
		return nil, fmt.Errorf("gen: seeded %q n=%d seed=%d: %w", name, n, seed, err)
	}
	return g, nil
}
