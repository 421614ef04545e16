package graph

import (
	"fmt"
	"sync/atomic"

	"mstadvice/internal/par"
)

// FromEdgeList builds a graph on n nodes from complete edge records —
// endpoints, both port numbers, and weight all filled in — plus optional
// protocol identifiers (nil means the default IDs u+1). Ports must form,
// at every node, exactly the range 0..deg-1 with each port used once;
// violations are reported as errors, as are the structural defects
// validate catches. Edge i of the list becomes EdgeID i.
//
// It is the only constructor that builds a CSR: Builder.Build and the
// store decoder both end here. Because it honours recorded ports rather
// than re-deriving them from insertion order, it reproduces a graph whose
// ports deletions have swap-removed, port for port. The graph takes
// ownership of edges and of a non-nil ids; the caller must not use either
// afterwards. n must lie in
// [0, math.MaxInt32] and 2·len(edges) must not exceed math.MaxInt32; a
// larger request is an error returned before anything is allocated.
//
// Construction is parallel over edges and nodes: degree counting uses
// commutative atomic adds and every edge ID is scattered to the two
// slots its recorded ports name, so the resulting graph is
// byte-identical for any worker count. The incremental Builder
// assigns ports as edges arrive, a sequential pass, and then hands its
// records here; the seeded parallel generators compute every port up
// front and hand theirs directly (see DESIGN.md §2.12).
func FromEdgeList(n int, ids []int64, edges []Edge, workers int) (*Graph, error) {
	if err := CheckSize(n, len(edges)); err != nil {
		return nil, err
	}
	if ids != nil && len(ids) != n {
		return nil, fmt.Errorf("graph: FromEdgeList got %d ids for %d nodes", len(ids), n)
	}
	workers = par.WorkersFor(workers, len(edges))
	deg := make([]int32, n)
	err := par.FirstFailure(workers, len(edges), func(_, lo, hi int) (int, error) {
		for ei := lo; ei < hi; ei++ {
			e := edges[ei]
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
				return ei, fmt.Errorf("graph: edge %d endpoint out of range: %d-%d (n=%d)", ei, e.U, e.V, n)
			}
			if e.U == e.V {
				return ei, fmt.Errorf("graph: edge %d is a self-loop at %d", ei, e.U)
			}
			atomic.AddInt32(&deg[e.U], 1)
			atomic.AddInt32(&deg[e.V], 1)
		}
		return -1, nil
	})
	if err != nil {
		return nil, err
	}
	off := make([]int32, n+1)
	total := int32(0)
	for u := 0; u < n; u++ {
		off[u] = total
		total += deg[u]
	}
	off[n] = total
	adj := make([]EdgeID, total)
	// Each edge claims its two slots by swapping its ID into adj, which
	// starts at -1, so a port two edges name (possible in records read
	// from a file) is an error, never a racing write.
	scatter := func(workers int) error {
		par.Ranges(workers, len(adj), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				adj[i] = -1
			}
		})
		return par.FirstFailure(workers, len(edges), func(_, lo, hi int) (int, error) {
			for ei := lo; ei < hi; ei++ {
				e := edges[ei]
				if e.PU < 0 || e.PU >= deg[e.U] || e.PV < 0 || e.PV >= deg[e.V] {
					return ei, fmt.Errorf("graph: edge %d port out of range: %d@%d / %d@%d", ei, e.PU, e.U, e.PV, e.V)
				}
				if !atomic.CompareAndSwapInt32((*int32)(&adj[off[e.U]+e.PU]), -1, int32(ei)) {
					return ei, fmt.Errorf("graph: edge %d claims port %d of node %d, which an earlier edge holds", ei, e.PU, e.U)
				}
				if !atomic.CompareAndSwapInt32((*int32)(&adj[off[e.V]+e.PV]), -1, int32(ei)) {
					return ei, fmt.Errorf("graph: edge %d claims port %d of node %d, which an earlier edge holds", ei, e.PV, e.V)
				}
			}
			return -1, nil
		})
	}
	if err := scatter(workers); err != nil {
		// Which of two edges naming one port loses its claim depends on
		// scheduling; a sequential replay makes the reported edge the
		// first one, in list order, that a sequential scan would reject.
		if workers > 1 {
			err = scatter(1)
		}
		return nil, err
	}
	if ids == nil {
		ids = make([]int64, n)
		par.Ranges(workers, n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				ids[u] = int64(u + 1)
			}
		})
	}
	g := &Graph{adj: adj, off: off, deg: deg, edges: edges, ids: ids}
	if err := g.validate(workers); err != nil {
		return nil, err
	}
	return g, nil
}
