// Package graph implements the network model of Fraigniaud, Korman and
// Lebhar (SPAA 2007): n-node simple connected graphs with edge weights,
// distinct node identifiers, and a per-node port numbering of the incident
// edges. All distributed algorithms and oracles in this repository operate
// on this representation.
//
// Two edge orders matter throughout:
//
//   - the local order at a node u sorts u's incident edges by
//     (weight, port at u); it is computable by u from its own input alone
//     and underlies the index/rank machinery of the paper (indexu(e) and
//     the rank r_u(e) of indexu(e));
//   - the global order sorts edges by (weight, smaller endpoint ID, port at
//     that endpoint); it is an intrinsic strict total order used by every
//     MST computation for tie-breaking, which guarantees a unique MST and
//     keeps Borůvka fragment selections acyclic even with equal weights.
//
// Graphs that are published (a service epoch) or decoded (a store
// snapshot) may share storage: Reweighted builds the graph a
// weight-only batch leaves on its predecessor's CSR and identifiers.
// That is why such graphs are never mutated; ApplyBatch patches only a
// private Clone.
//
// See DESIGN.md §2.1 for the CSR layout, the edge record that holds
// every endpoint, port and weight, and the in-place update door used by
// the dynamic subsystem.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mstadvice/internal/par"
)

// NodeID is the internal, dense identifier of a node: 0..N()-1. It is an
// index, not the (distinct, arbitrary) identifier nodes use in protocols;
// see Graph.ID. It is 32 bits wide, like the CSR offsets, so a graph has
// at most math.MaxInt32 nodes (see DESIGN.md §2.1).
type NodeID int32

// Weight is an edge weight. Weights may repeat; ties are resolved by the
// orders documented on the package.
type Weight int64

// EdgeID is the dense identifier of an undirected edge: 0..M()-1. It is
// 32 bits wide; since both half-edges of every edge must fit the int32
// CSR offsets, a graph has at most math.MaxInt32/2 edges.
type EdgeID int32

// Half describes one endpoint's view of an incident edge: the neighbour it
// leads to and the identity of the underlying edge. It is not stored: a
// graph keeps only the edge ID at each port, and HalfAt reads the far
// endpoint from the edge record. A weight belongs to the edge, not to
// either endpoint: read it with Graph.Weight(h.Edge).
type Half struct {
	To   NodeID
	Edge EdgeID
}

// Edge is the full record of an undirected edge: 24 bytes. It is the one
// place an endpoint, a port or a weight is stored.
type Edge struct {
	U, V   NodeID // endpoints, in insertion order
	PU, PV int32  // port of the edge at U and at V
	W      Weight
}

// Graph is an immutable simple weighted graph with port numbering. Build
// one with a Builder or FromEdgeList. The zero value is an empty graph.
//
// Internally the adjacency is stored in CSR (compressed sparse row) form:
// the edge ID at each of the 2m ports lives in one contiguous slice
// grouped by node, with per-node offsets and degrees, and every per-node
// adjacency slice is a view into it. The far endpoint and the far port of
// a half-edge are read from its edge record.
type Graph struct {
	adj   []EdgeID // CSR payload: the edge at port p of node u is adj[off[u]+p], p < deg[u]
	off   []int32  // CSR offsets, len n+1; fixed once built
	deg   []int32  // degrees; a deletion shrinks deg[u] below off[u+1]-off[u]
	edges []Edge
	ids   []int64 // distinct protocol-level identifiers, indexed by NodeID
}

// CheckSize rejects node and edge counts the int32 identifiers and CSR
// offsets cannot address. Constructors and the seeded generator call it
// before allocating.
func CheckSize(n, m int) error {
	switch {
	case n < 0:
		return fmt.Errorf("graph: negative node count %d", n)
	case n > math.MaxInt32:
		return fmt.Errorf("graph: %d nodes exceed the int32 bound %d", n, math.MaxInt32)
	case m > math.MaxInt32/2:
		return fmt.Errorf("graph: %d edges (%d half-edges) exceed the int32 bound %d", m, 2*m, math.MaxInt32)
	}
	return nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.deg) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return int(g.deg[u]) }

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := int32(0)
	for _, d := range g.deg {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// ID returns the protocol-level identifier of u. Identifiers are distinct
// across nodes but otherwise arbitrary.
func (g *Graph) ID(u NodeID) int64 { return g.ids[u] }

// IDs returns the protocol-level identifiers of all nodes, indexed by
// NodeID. The returned slice must not be modified.
func (g *Graph) IDs() []int64 { return g.ids }

// Ports returns the edge at each of u's ports, in port order, as a
// capacity-capped view into the graph's contiguous CSR storage. The
// returned slice must not be modified.
func (g *Graph) Ports(u NodeID) []EdgeID {
	lo := g.off[u]
	hi := lo + g.deg[u]
	return g.adj[lo:hi:hi]
}

// HalfOffset returns the index of u's first half-edge in the CSR storage:
// the half-edge at (u, port) has global half-edge index HalfOffset(u)+port.
// Offsets are monotone, so HalfOffset also serves as a prefix-degree sum
// for per-port flat buffers (slot i of node u lives at HalfOffset(u)+i).
func (g *Graph) HalfOffset(u NodeID) int { return int(g.off[u]) }

// NumHalves returns the length of the CSR storage: 2·M() half-edges,
// plus one slot per port that a deletion has freed.
func (g *Graph) NumHalves() int { return len(g.adj) }

// DstPort returns the port at the far endpoint of the half-edge at
// (u, port): if that half-edge leads to v over edge e, DstPort(u, port) ==
// PortAt(e, v). It reads the edge record.
func (g *Graph) DstPort(u NodeID, port int) int {
	_, p := g.far(g.Ports(u)[port], u)
	return int(p)
}

// HalfAt returns u's half-edge at the given port, reading the far
// endpoint from the edge record.
func (g *Graph) HalfAt(u NodeID, port int) Half {
	e := g.Ports(u)[port]
	v, _ := g.far(e, u)
	return Half{To: v, Edge: e}
}

// far returns the endpoint of edge e other than u and e's port there,
// read from the edge record; u must be an endpoint of e.
func (g *Graph) far(e EdgeID, u NodeID) (NodeID, int32) {
	rec := &g.edges[e]
	if rec.U == u {
		return rec.V, rec.PV
	}
	return rec.U, rec.PU
}

// Edge returns the full record of edge e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Edges returns all edge records. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// PortAt returns the port number of edge e at its endpoint u. It panics if
// u is not an endpoint of e.
func (g *Graph) PortAt(e EdgeID, u NodeID) int {
	rec := g.edges[e]
	switch u {
	case rec.U:
		return int(rec.PU)
	case rec.V:
		return int(rec.PV)
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", u, e))
	}
}

// Other returns the endpoint of e different from u.
func (g *Graph) Other(e EdgeID, u NodeID) NodeID {
	rec := g.edges[e]
	switch u {
	case rec.U:
		return rec.V
	case rec.V:
		return rec.U
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", u, e))
	}
}

// Weight returns the weight of edge e.
func (g *Graph) Weight(e EdgeID) Weight { return g.edges[e].W }

// MaxWeight returns the largest edge weight (0 for edgeless graphs).
func (g *Graph) MaxWeight() Weight {
	var max Weight
	for _, e := range g.edges {
		if e.W > max {
			max = e.W
		}
	}
	return max
}

// TotalWeight sums the weights of the given edges.
func (g *Graph) TotalWeight(es []EdgeID) Weight {
	var sum Weight
	for _, e := range es {
		sum += g.Weight(e)
	}
	return sum
}

// GlobalKey is the intrinsic strict total order key of an edge:
// (weight, smaller endpoint ID, port at that endpoint). Because the graph
// is simple, no two distinct edges share all three components.
type GlobalKey struct {
	W         Weight
	MinID     int64
	PortAtMin int
}

// Key returns the global order key of edge e.
func (g *Graph) Key(e EdgeID) GlobalKey {
	rec := g.edges[e]
	idU, idV := g.ids[rec.U], g.ids[rec.V]
	if idU <= idV {
		return GlobalKey{rec.W, idU, int(rec.PU)}
	}
	return GlobalKey{rec.W, idV, int(rec.PV)}
}

// Less reports whether key a precedes key b in the global order.
func (a GlobalKey) Less(b GlobalKey) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.MinID != b.MinID {
		return a.MinID < b.MinID
	}
	return a.PortAtMin < b.PortAtMin
}

// EdgeLess reports whether edge a strictly precedes edge b in the global
// order. For a == b it returns false.
func (g *Graph) EdgeLess(a, b EdgeID) bool { return g.Key(a).Less(g.Key(b)) }

// GlobalOrder returns every edge ID, ascending in the global order:
// SortGlobal's all-edges case on par.Workers(0) workers. Kruskal and the
// sensitivity oracle walk it.
func (g *Graph) GlobalOrder() []EdgeID {
	order, _ := g.globalOrder(0)
	return order
}

// globalOrder is GlobalOrder with an explicit worker request; radix
// reports whether the packed words were sorted (false on the
// comparison fallback).
func (g *Graph) globalOrder(workers int) (order []EdgeID, radix bool) {
	m := len(g.edges)
	order = make([]EdgeID, m)
	par.Ranges(par.WorkersFor(workers, m), m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			order[i] = EdgeID(i)
		}
	})
	return order, g.sortGlobal(workers, order)
}

// SortGlobal sorts es, distinct edge IDs of g, ascending in the global
// order, in place. It is the one implementation of that order: it
// radix-sorts the edges' packed order words (OrderWords) with
// par.SortU64 on workers, and a word names its edge, as the port at a
// node does, so no edge ID rides along. Graphs whose fields the packed
// word cannot hold take a comparison sort over Key instead. The result
// is the same for any worker count.
func (g *Graph) SortGlobal(workers int, es []EdgeID) { g.sortGlobal(workers, es) }

// sortGlobal is SortGlobal; radix reports whether the packed words were
// sorted (false on the comparison fallback).
func (g *Graph) sortGlobal(workers int, es []EdgeID) (radix bool) {
	if len(es) < 2 {
		return true
	}
	l, ok := g.orderLayout(workers)
	if !ok {
		slices.SortFunc(es, func(a, b EdgeID) int {
			ka, kb := g.Key(a), g.Key(b)
			switch {
			case ka.Less(kb):
				return -1
			case kb.Less(ka):
				return 1
			default:
				return 0
			}
		})
		return false
	}
	words := make([]uint64, len(es))
	edgeWorkers := par.WorkersFor(workers, len(es))
	par.Ranges(edgeWorkers, len(es), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			words[i] = l.word(&g.edges[es[i]])
		}
	})
	par.SortU64(workers, words)
	par.Ranges(edgeWorkers, len(es), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			es[i] = l.edge(g, words[i])
		}
	})
	return true
}

// OrderWords returns one word per edge, indexed by EdgeID, whose
// unsigned order is the global order: words[a] < words[b] exactly when
// Key(a).Less(Key(b)). The word packs weight minus the least weight,
// the rank of the smaller-ID endpoint among all IDs, and the port
// there; on graphs whose IDs do not fit int32, or whose three fields
// need more than 64 bits together, it is instead the edge's position
// in GlobalOrder. The Borůvka phase kernel compares these words;
// SortGlobal sorts them.
func (g *Graph) OrderWords(workers int) []uint64 {
	m := len(g.edges)
	words := make([]uint64, m)
	if m == 0 {
		return words
	}
	l, ok := g.orderLayout(workers)
	if !ok {
		order, _ := g.globalOrder(workers)
		for i, e := range order {
			words[e] = uint64(i)
		}
		return words
	}
	par.Ranges(par.WorkersFor(workers, m), m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			words[i] = l.word(&g.edges[i])
		}
	})
	return words
}

// orderLayout is the one layout of the packed order word: what it takes
// to pack an edge's word and to read the edge back from it. rank[u] is
// u's position among the sorted IDs, and the node at ID rank r is the
// low half of idWords[r].
type orderLayout struct {
	minW               Weight
	rank               []int32
	idWords            []uint64
	rankBits, portBits uint
}

// orderLayout sizes the three fields of g's order words and ranks its
// IDs. ok is false, and nothing is allocated, when some ID does not fit
// int32 or the fields need more than 64 bits together; g has edges.
func (g *Graph) orderLayout(workers int) (l orderLayout, ok bool) {
	minW, maxW := g.edges[0].W, g.edges[0].W
	for _, e := range g.edges {
		minW, maxW = min(minW, e.W), max(maxW, e.W)
	}
	// The weight span is taken as unsigned, so it is exact for any pair
	// of int64 weights.
	l.minW = minW
	l.portBits = uint(bits.Len32(uint32(g.MaxDegree() - 1)))
	l.rankBits = uint(bits.Len32(uint32(g.N() - 1)))
	if uint(bits.Len64(uint64(maxW)-uint64(minW)))+l.rankBits+l.portBits > 64 {
		return l, false
	}
	if l.idWords, ok = g.sortedIDWords(workers); !ok {
		return l, false
	}
	l.rank = make([]int32, len(l.idWords))
	par.Ranges(par.WorkersFor(workers, len(l.idWords)), len(l.idWords), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			l.rank[uint32(l.idWords[r])] = int32(r)
		}
	})
	return l, true
}

// word packs edge e's order word: (weight − minW, rank of the
// smaller-ID endpoint, port there), high field first.
func (l *orderLayout) word(e *Edge) uint64 {
	r, p := l.rank[e.U], e.PU
	if rv := l.rank[e.V]; rv < r {
		r, p = rv, e.PV
	}
	return (uint64(e.W)-uint64(l.minW))<<(l.rankBits+l.portBits) | uint64(r)<<l.portBits | uint64(p)
}

// edge reads back the edge whose order word is w: the edge at the
// word's port of the node at the word's ID rank.
func (l *orderLayout) edge(g *Graph, w uint64) EdgeID {
	u := uint32(l.idWords[(w>>l.portBits)&(1<<l.rankBits-1)])
	return g.adj[g.off[u]+int32(w&(1<<l.portBits-1))]
}

// LocalRank returns the 0-based position of the half-edge at the given port
// among u's incident edges sorted by the local order (weight, then port).
// The mapping rank <-> port is a bijection computable by u alone, which is
// what makes rank-based advice decodable in zero rounds.
func (g *Graph) LocalRank(u NodeID, port int) int {
	adj := g.Ports(u)
	me := g.Weight(adj[port])
	rank := 0
	for p, e := range adj {
		if w := g.Weight(e); w < me || (w == me && p < port) {
			rank++
		}
	}
	return rank
}

// GlobalRankAt returns the 0-based position of the half-edge at the given
// port among u's incident edges sorted by the global order. A node can
// compute this after learning its neighbours' identifiers (one round).
func (g *Graph) GlobalRankAt(u NodeID, port int) int {
	adj := g.Ports(u)
	me := g.Key(adj[port])
	rank := 0
	for p, e := range adj {
		if p != port && g.Key(e).Less(me) {
			rank++
		}
	}
	return rank
}

// BFS returns, for every node, its hop distance from src (-1 if
// unreachable) and the port of the edge towards its BFS parent (-1 for src
// and unreachable nodes). Neighbours are explored in port order.
func (g *Graph) BFS(src NodeID) (dist []int, parentPort []int) {
	dist = make([]int, g.N())
	parentPort = make([]int, g.N())
	for i := range dist {
		dist[i], parentPort[i] = -1, -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.Ports(u) {
			if v, pv := g.far(e, u); dist[v] == -1 {
				dist[v] = dist[u] + 1
				parentPort[v] = int(pv)
				queue = append(queue, v)
			}
		}
	}
	return dist, parentPort
}

// sortedIDWords packs every node's (biased ID, node) into one word —
// the ID in the high half, offset by 2³¹ so the words sort as the IDs
// do, and the node in the low half — and radix-sorts the words, so the
// node whose ID has rank r is the low half of word r. ok is false, and
// nothing is sorted, when some ID does not fit int32. validate's
// duplicate-ID check and the order words' endpoint ranks both read it.
func (g *Graph) sortedIDWords(workers int) (words []uint64, ok bool) {
	for _, id := range g.ids {
		if id < -1<<31 || id > 1<<31-1 {
			return nil, false
		}
	}
	workers = par.WorkersFor(workers, len(g.ids))
	words = make([]uint64, len(g.ids))
	par.Ranges(workers, len(g.ids), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			words[u] = (uint64(uint32(g.ids[u]))^0x8000_0000)<<32 | uint64(uint32(u))
		}
	})
	par.SortU64(workers, words)
	return words, true
}

// validate performs the structural integrity checks every constructor
// runs (ID distinctness, port reciprocity, simplicity). It is
// allocation-lean and parallel enough to run on every generated graph up
// to n = 10⁶: duplicate IDs are found by a sort over packed keys and
// duplicate edges by sorting each node's neighbours, with no hash set,
// and the per-edge and per-node checks run over ranges on the worker
// pool. Each pass is sized by par.WorkersFor: an explicit count is
// honoured even above GOMAXPROCS, so tests drive the parallel passes on
// 1–2-core hosts.
func (g *Graph) validate(workers int) error {
	// ID distinctness: sort (id, node) pairs and compare neighbours.
	// IDs that fit int32 (every generator's do) take the fast path,
	// sortedIDWords; wider IDs fall back to a comparison sort of
	// explicit pairs.
	if keys, ok := g.sortedIDWords(workers); ok {
		for i := 1; i < len(keys); i++ {
			if keys[i]>>32 == keys[i-1]>>32 {
				return fmt.Errorf("graph: duplicate ID %d at nodes %d and %d",
					int32(uint32(keys[i]>>32)^0x8000_0000), uint32(keys[i-1]), uint32(keys[i]))
			}
		}
	} else {
		type idPair struct {
			id   int64
			node NodeID
		}
		idPairs := make([]idPair, len(g.ids))
		for u, id := range g.ids {
			idPairs[u] = idPair{id, NodeID(u)}
		}
		slices.SortFunc(idPairs, func(a, b idPair) int {
			switch {
			case a.id < b.id:
				return -1
			case a.id > b.id:
				return 1
			default:
				return int(a.node - b.node)
			}
		})
		for i := 1; i < len(idPairs); i++ {
			if idPairs[i].id == idPairs[i-1].id {
				return fmt.Errorf("graph: duplicate ID %d at nodes %d and %d",
					idPairs[i].id, idPairs[i-1].node, idPairs[i].node)
			}
		}
	}
	// Self-loops, then port reciprocity — the edge at each of its two
	// recorded ports is the edge itself — in parallel over edge ranges;
	// par.FirstFailure reports the lowest failing edge, the same error a
	// sequential scan would return.
	err := par.FirstFailure(par.WorkersFor(workers, len(g.edges)), len(g.edges), func(_, lo, hi int) (int, error) {
		for ei := lo; ei < hi; ei++ {
			e := g.edges[ei]
			if e.U == e.V {
				return ei, fmt.Errorf("graph: edge %d is a self-loop at %d", ei, e.U)
			}
			if g.Ports(e.U)[e.PU] != EdgeID(ei) || g.Ports(e.V)[e.PV] != EdgeID(ei) {
				return ei, fmt.Errorf("graph: port table inconsistent for edge %d", ei)
			}
		}
		return -1, nil
	})
	if err != nil {
		return err
	}
	total := 0
	for _, d := range g.deg {
		total += int(d)
	}
	if total != 2*len(g.edges) {
		return fmt.Errorf("graph: degree sum %d != 2m = %d", total, 2*len(g.edges))
	}
	// Simplicity: with the adjacency now known to list exactly each
	// node's incident edges, a duplicate edge is a neighbour listed twice.
	// Each node's neighbours, read from the edge records, are sorted in a
	// per-worker buffer and compared in order; the lowest offending node
	// is reported.
	return par.FirstFailure(par.WorkersFor(workers, g.N()), g.N(), func(_, lo, hi int) (int, error) {
		var buf []NodeID
		for u := NodeID(lo); u < NodeID(hi); u++ {
			buf = buf[:0]
			for _, e := range g.Ports(u) {
				v, _ := g.far(e, u)
				buf = append(buf, v)
			}
			slices.Sort(buf)
			for i := 1; i < len(buf); i++ {
				if v := buf[i]; v == buf[i-1] {
					return int(u), fmt.Errorf("graph: duplicate edge %d-%d", min(u, v), max(u, v))
				}
			}
		}
		return -1, nil
	})
}

// Builder assembles a Graph. Nodes are created up front; edges are added
// one at a time and receive consecutive ports at each endpoint in insertion
// order (generators shuffle insertion order to randomise port labellings).
// The builder keeps only the edge records and a per-node port counter;
// Build hands the records to FromEdgeList, the one place a CSR is built.
//
// AddEdge performs only O(1) endpoint checks; duplicate edges are caught
// by Build's validation pass instead of a per-edge hash set, which keeps
// construction allocation-lean at n = 10⁶ scale.
type Builder struct {
	ports []int32 // next free port at each node
	edges []Edge
	err   error
}

// NewBuilder creates a builder for a graph with n nodes and default
// identifiers ID(u) = u+1. A node count outside [0, math.MaxInt32] is
// reported by Build, and nothing is allocated for it.
func NewBuilder(n int) *Builder {
	if err := CheckSize(n, 0); err != nil {
		return &Builder{err: err}
	}
	return &Builder{ports: make([]int32, n)}
}

// AddEdge adds an undirected edge {u, v} of weight w. The edge gets the
// next free port at u and at v.
func (b *Builder) AddEdge(u, v NodeID, w Weight) *Builder {
	if b.err != nil {
		return b
	}
	n := NodeID(len(b.ports))
	if u < 0 || u >= n || v < 0 || v >= n {
		b.err = fmt.Errorf("graph: edge endpoint out of range: %d-%d (n=%d)", u, v, n)
		return b
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at %d", u)
		return b
	}
	if err := CheckSize(len(b.ports), len(b.edges)+1); err != nil {
		b.err = err
		return b
	}
	b.edges = append(b.edges, Edge{U: u, V: v, PU: b.ports[u], PV: b.ports[v], W: w})
	b.ports[u]++
	b.ports[v]++
	return b
}

// Build finalises the graph and validates it. The graph takes ownership
// of the builder's edge array.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	return FromEdgeList(len(b.ports), nil, b.edges, 0)
}

// CeilLog2 returns ⌈log2(x)⌉ for x >= 1 (0 for x = 1) and panics otherwise.
// It is the paper's ⌈log n⌉.
func CeilLog2(x int) int {
	if x < 1 {
		panic(fmt.Sprintf("graph: CeilLog2(%d)", x))
	}
	k, p := 0, 1
	for p < x {
		p <<= 1
		k++
	}
	return k
}
