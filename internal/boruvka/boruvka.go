// Package boruvka implements the deterministic Borůvka variant of §2.2 of
// Fraigniaud, Korman and Lebhar (SPAA 2007), which underlies both of the
// paper's advising schemes.
//
// The construction proceeds in phases. Before phase 1 every node is a
// singleton fragment. At phase i only fragments F with |F| < 2^i are
// *active*; every active fragment selects its minimum outgoing edge under
// the graph's intrinsic global order (the paper breaks ties "using the
// port numbers ... [then] arbitrarily"; the intrinsic order makes the
// choice canonical and provably acyclic), and all fragments connected by
// selected edges merge. Lemma 1 of the paper: after phase i every fragment
// has at least 2^i nodes, so a fragment active at phase i satisfies
// 2^(i-1) <= |F| < 2^i and at most n/2^(i-1) fragments are active.
//
// DecomposeOpt runs the merge simulation (pass 1) and keeps the tree,
// each edge's selection phase, every phase's contraction map (the
// contraction tower, read through FragOf and NumFrags) and, for the
// phases Options.KeepPhases names, their active flags and selections.
// Decomposition.Run is the one pass 2: it streams a window of phases,
// rebuilding each partition from the contraction maps and handing every
// fragment to a visitor with its root (its node closest to the chosen
// global root in the final tree T), its level (the parity of its depth
// in the "tree of fragments" T_i), its selection (chooser node,
// selected edge, up/down orientation) and the BFS ordering of its
// fragment tree T_F. These are exactly the quantities the paper's
// oracles encode into advice: the Theorem 3 oracle reads phases 1..P+1,
// a hierarchical level ℓ the fragments at the start of phase ℓ+1, and
// every oracle, experiment and test reads them as Run visits.
//
// The phase kernel is built for n = 10⁶-scale graphs. The cross-fragment
// edge list is contracted in place: each phase relabels the surviving
// edges' endpoints to dense fragment IDs and drops intra-fragment edges,
// so a phase costs O(live + fragments), not O(n + m). Fragment
// partitions are flat index arrays filled by counting passes (no maps),
// and the minimum-outgoing-edge selection runs as per-worker scans over
// contiguous ranges of the live list merged at a barrier. Because the
// global order is a strict total order, every fragment's minimum is
// unique, so the merged result — the Decomposition and every Run visit —
// is byte-identical for any worker count (the same contract the round
// engine in internal/sim honors).
//
// See DESIGN.md §2.2 for the decomposition's role in both schemes,
// DESIGN.md §2.5 for the contracted parallel phase kernel and DESIGN.md
// §2.12 for Run.
package boruvka

import (
	"cmp"
	"fmt"
	"slices"

	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
	"mstadvice/internal/par"
	"mstadvice/internal/unionfind"
)

// FragID identifies a fragment within one phase (dense, 0-based, ordered
// by the fragment's smallest node index). A fragment holds at least one
// node, so int32 holds every ID, as it holds every graph.NodeID.
type FragID int32

// Selection describes the edge an active fragment selected during a phase.
type Selection struct {
	Chooser graph.NodeID // the fragment endpoint of the selected edge
	Edge    graph.EdgeID
	Up      bool // true iff the edge leads from the chooser towards the global root in T
}

// Options tune a decomposition run without changing its result.
type Options struct {
	// Workers is the pool size of the phase kernel and of Run; 0 means
	// GOMAXPROCS. The Decomposition and every Run visit are
	// byte-identical for any value.
	Workers int
	// KeepPhases, when positive, keeps the active flags and selections
	// of only the first KeepPhases phases; 0 keeps every phase's. Run
	// needs them for every phase it streams up to TotalPhases. The merge
	// simulation always runs to completion and every phase's
	// contraction map is kept, so TotalPhases, TreeEdges, SelPhase,
	// FragOf, NumFrags and the spanning fragment at TotalPhases+1 are
	// unaffected. The Theorem 3 oracle reads only the first
	// ⌈log log n⌉ + 1 phases: a random graph with n = 10⁶ (seed 3)
	// runs 18 phases, and the oracle keeps 6.
	KeepPhases int
}

// Decomposition is a run of the Borůvka variant: pass 1's outputs,
// complete when DecomposeOpt returns, and the contraction maps and kept
// selections that Run streams.
type Decomposition struct {
	G    *graph.Graph
	Root graph.NodeID

	// TotalPhases is the number of phases the construction executed,
	// regardless of how many were kept. The last phase is the one whose
	// merges produced a single fragment, which Run streams as phase
	// TotalPhases+1; a phase with no active fragment (possible when
	// early merges overshoot) selects nothing.
	TotalPhases int

	// TreeEdges is the unique MST under the global order, ascending.
	TreeEdges []graph.EdgeID
	// ParentPort[u] is the port at u of its parent edge in T rooted at
	// Root; -1 for the root itself. Run fills it, and ParentEdge, before
	// its first visit; both are nil until Run is first called.
	ParentPort []int
	// ParentEdge[u] is the corresponding edge (-1 for the root).
	ParentEdge []graph.EdgeID
	// SelPhase[e] is the phase (1-based) at which tree edge e was selected,
	// 0 for non-tree edges. By Lemma 1 a run ends within ⌈log₂ n⌉ ≤ 31
	// phases, so one byte holds it.
	SelPhase []uint8
	// Workers is the resolved pool size of the phase kernel and of Run,
	// by which a visitor sizes its per-worker scratch. Read-only.
	Workers int

	// ups[i-1] maps phase i's fragments to phase i+1's, for every phase
	// i in 1..TotalPhases: the contraction tower. The last one maps every
	// fragment to the spanning fragment 0.
	ups [][]int32
	// kept[i-1] holds phase i's active flags and selections, for the
	// first Options.KeepPhases phases.
	kept []keptPhase

	// Flattened views of the rooted tree, computed once, by the first
	// Run, and shared by all phase annotations: the T-parent of u (-1 for
	// the root), the weight of u's parent edge, and its port at the
	// parent.
	parentNode []int32
	parentW    []graph.Weight
	parentPt   []int32
}

// keptPhase is what pass 1 keeps of one phase beyond its contraction
// map, indexed by the phase's fragments: whether each is active, and
// the edge it selected (-1 if none).
type keptPhase struct {
	active []bool
	sel    []int32
}

// liveEdge is one entry of the contracted cross-fragment edge list: the
// original edge plus its endpoints relabelled to current fragment IDs.
type liveEdge struct {
	e    int32 // EdgeID
	u, v int32 // endpoint fragment IDs for the current phase
}

// DecomposeOpt runs pass 1 of the construction on a connected graph:
// the merge simulation, which fills TotalPhases, TreeEdges, SelPhase
// and every phase's contraction map, and keeps the first
// Options.KeepPhases phases' active flags and selections for Run. It
// defers the rooting and the annotation to Run, so a reader of the
// contraction maps alone (FragOf, NumFrags) never pays for them. The
// result is byte-identical for any Options.Workers.
func DecomposeOpt(g *graph.Graph, root graph.NodeID, opt Options) (*Decomposition, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("boruvka: empty graph")
	}
	if int(root) < 0 || int(root) >= n {
		return nil, fmt.Errorf("boruvka: root %d out of range", root)
	}
	m := g.M()
	workers := par.Workers(opt.Workers)

	// One order word per edge (graph.OrderWords), computed once, so a
	// selection compares two integers.
	words := g.OrderWords(workers)
	edgeLess := func(a, b int32) bool { return words[a] < words[b] }

	// Live edge list with contracted endpoints, compacted in place each
	// phase. Before phase 1 fragments are singletons, so fragment IDs
	// coincide with node IDs.
	live := make([]liveEdge, m)
	par.Ranges(workers, m, func(_, lo, hi int) {
		for ei := lo; ei < hi; ei++ {
			rec := g.Edge(graph.EdgeID(ei))
			live[ei] = liveEdge{int32(ei), int32(rec.U), int32(rec.V)}
		}
	})

	// Simulate the phases, recording each phase's contraction map and
	// each kept phase's active flags and selections.
	dsu := unionfind.New(n)
	var ups [][]int32
	var kept []keptPhase
	treeCount := 0
	selPhase := make([]uint8, m)

	// Contracted fragment state: numFrags current fragments, repNode[f]
	// the smallest node of fragment f, fsize[f] its node count. rootFrag/
	// rootStamp map DSU roots to dense new-fragment IDs without a map.
	numFrags := n
	repNode := make([]int32, n)
	fsize := make([]int32, n)
	oldToNew := make([]int32, n)
	active := make([]bool, n)
	for u := 0; u < n; u++ {
		repNode[u] = int32(u)
		fsize[u] = 1
	}
	rootFrag := make([]int32, n)
	rootStamp := make([]int32, n)
	// Per-worker selection minima, allocated lazily for the workers a
	// phase actually engages (a length-n array per worker is real memory
	// on many-core hosts, and small graphs never engage more than one).
	bests := make([][]int32, workers)

	phases := 0
	for i := 1; numFrags > 1; i++ {
		if i > 31 {
			// Lemma 1: after phase i every fragment has at least 2^i
			// nodes, and n ≤ MaxInt32.
			return nil, fmt.Errorf("boruvka: phase bound exceeded (internal error)")
		}
		phases = i
		nf := numFrags

		limit := int32(0)
		if i < 31 {
			limit = int32(1) << uint(i)
		}
		for f := 0; f < nf; f++ {
			active[f] = limit == 0 || fsize[f] < limit
		}

		// Minimum outgoing edge per active fragment: each worker folds
		// one contiguous range of the live list into its own minimum
		// array, and the barrier merges them. The per-fragment minimum
		// under the strict global order is an order-independent
		// semigroup, so the merge is byte-identical for any worker count.
		// par.WorkersFor scales the pool with the live list, so fork-join
		// overhead and per-worker buffer resets never dominate a
		// shrinking phase.
		scanWorkers := par.WorkersFor(workers, len(live))
		for w := 0; w < scanWorkers; w++ {
			if bests[w] == nil {
				bests[w] = make([]int32, n)
			}
			best := bests[w]
			for f := 0; f < nf; f++ {
				best[f] = -1
			}
		}
		par.Ranges(scanWorkers, len(live), func(w, lo, hi int) {
			best := bests[w]
			for idx := lo; idx < hi; idx++ {
				le := live[idx]
				if active[le.u] && (best[le.u] == -1 || edgeLess(le.e, best[le.u])) {
					best[le.u] = le.e
				}
				if active[le.v] && (best[le.v] == -1 || edgeLess(le.e, best[le.v])) {
					best[le.v] = le.e
				}
			}
		})
		if scanWorkers > 1 {
			par.Ranges(scanWorkers, nf, func(_, lo, hi int) {
				for f := lo; f < hi; f++ {
					b := bests[0][f]
					for w := 1; w < scanWorkers; w++ {
						if c := bests[w][f]; c != -1 && (b == -1 || edgeLess(c, b)) {
							b = c
						}
					}
					bests[0][f] = b
				}
			})
		}
		if opt.KeepPhases <= 0 || len(kept) < opt.KeepPhases {
			kept = append(kept, keptPhase{active: slices.Clone(active[:nf]), sel: slices.Clone(bests[0][:nf])})
		}

		// Merge. Selected edges are acyclic under a strict total order, so
		// every union either merges or repeats an edge selected from both
		// sides.
		for f := 0; f < nf; f++ {
			e := bests[0][f]
			if e == -1 {
				continue
			}
			rec := g.Edge(graph.EdgeID(e))
			if dsu.Union(int(rec.U), int(rec.V)) {
				treeCount++
				selPhase[e] = uint8(i)
			} else if selPhase[e] == 0 {
				// The union failed on an edge not previously selected: two
				// fragments merged through other selections this phase and
				// this edge would close a cycle. The intrinsic total order
				// rules this out.
				return nil, fmt.Errorf("boruvka: selected edges formed a cycle (internal error)")
			}
		}

		// Contract: relabel this phase's fragments to dense new IDs in
		// order of first appearance. Old IDs are ordered by smallest
		// member node and scanned ascending, so new IDs are too. The map
		// is phase i's level of the tower; Run rebuilds each node-level
		// partition from the previous one through it, so no per-node
		// data is kept here.
		stamp := int32(i)
		newNum := int32(0)
		for f := 0; f < nf; f++ {
			r := dsu.Find(int(repNode[f]))
			if rootStamp[r] != stamp {
				rootStamp[r] = stamp
				rootFrag[r] = newNum
				repNode[newNum] = repNode[f]
				fsize[newNum] = int32(dsu.SizeOf(r))
				newNum++
			}
			oldToNew[f] = rootFrag[r]
		}
		ups = append(ups, slices.Clone(oldToNew[:nf]))
		numFrags = int(newNum)
		if numFrags > 1 {
			// Relabel the live list and drop intra-fragment edges, in
			// place; the compacted list is the sequential one for any
			// worker count or schedule.
			live = compactLive(live, oldToNew, workers)
		}
	}

	if treeCount != n-1 {
		return nil, fmt.Errorf("boruvka: graph is disconnected (%d tree edges for %d nodes)", treeCount, n)
	}
	// The tree edges, ascending: exactly the selected ones.
	treeEdges := make([]graph.EdgeID, 0, n-1)
	for e, ph := range selPhase {
		if ph != 0 {
			treeEdges = append(treeEdges, graph.EdgeID(e))
		}
	}

	return &Decomposition{
		G: g, Root: root, TotalPhases: phases, TreeEdges: treeEdges, SelPhase: selPhase, Workers: workers,
		ups: ups, kept: kept,
	}, nil
}

// NumFrags returns the number of fragments at the start of phase (1 ≤
// phase ≤ TotalPhases+1): n at phase 1 and 1, the spanning fragment, at
// TotalPhases+1.
func (d *Decomposition) NumFrags(phase int) int {
	d.checkPhase(phase)
	if phase > d.TotalPhases {
		return 1
	}
	return len(d.ups[phase-1])
}

// FragOf maps every node to its fragment at the start of phase (1 ≤
// phase ≤ TotalPhases+1), composing the contraction maps of the phases
// before it: the identity at phase 1, all zeros at TotalPhases+1. The
// IDs are dense and ordered by smallest member, as Run's Frag is; the
// fragments' edges are the graph's edges whose endpoints FragOf puts
// apart. The slice is fresh.
func (d *Decomposition) FragOf(phase int) []int32 {
	d.checkPhase(phase)
	frag := make([]int32, d.G.N())
	for u := range frag {
		frag[u] = int32(u)
	}
	for _, up := range d.ups[:phase-1] {
		for u, f := range frag {
			frag[u] = up[f]
		}
	}
	return frag
}

func (d *Decomposition) checkPhase(phase int) {
	if phase < 1 || phase > d.TotalPhases+1 {
		panic(fmt.Sprintf("boruvka: phase %d out of range [1,%d]", phase, d.TotalPhases+1))
	}
}

// StreamVisit is one annotated fragment as Run delivers it. BFS is a
// view into an arena Run reuses from phase to phase, so it is valid only
// during the visit; Sel is meaningful only when HasSel is set.
type StreamVisit struct {
	Phase  int  // 1-based phase at whose start the partition holds
	Frag   int  // dense fragment ID within the phase, by smallest member
	Active bool // |F| < 2^Phase; false for the spanning fragment
	Root   graph.NodeID
	Level  int            // parity (0 or 1) of the fragment's depth in the tree of fragments T_i
	BFS    []graph.NodeID // BFS order of T_F from Root; children visited by (weight, port at parent)
	HasSel bool
	Sel    Selection
}

// Run is pass 2, fused with its consumer: it streams the phases
// first..min(last, TotalPhases+1), phase TotalPhases+1 being the single
// spanning fragment the last phase leaves. Each annotated fragment is
// handed to visit exactly once, in ascending phase order with a barrier
// between phases, and no per-fragment record is kept. The partitions of
// the phases before first are built, through the contraction maps, but
// not annotated. Within a phase, visits run concurrently across
// fragments (visit receives the worker index for per-worker scratch and
// must only touch fragment-local or worker-local state); a visit error
// aborts the run with the lowest (phase, fragment) failure, matching
// sequential semantics. One phase is resident at a time: the partition,
// the BFS arena and the annotation scratch are allocated once, for
// phase 1's n singletons, and rebuilt in place for every later phase.
//
// Run checks the window before anything else: it is an error when first
// < 1 or first > min(last, TotalPhases+1), or when a streamed phase up
// to TotalPhases had its selections dropped by Options.KeepPhases. The
// first Run then roots the tree (ParentPort, ParentEdge) before its
// first visit, so a visitor may read them; a later Run reuses the
// rooting. Run must not be called concurrently.
func (d *Decomposition) Run(first, last int, visit func(w int, v StreamVisit) error) error {
	end := min(last, d.TotalPhases+1)
	if first < 1 || first > end {
		return fmt.Errorf("boruvka: phase window [%d, %d] is empty or outside [1, %d]", first, last, d.TotalPhases+1)
	}
	if hi := min(end, d.TotalPhases); first <= hi && hi > len(d.kept) {
		return fmt.Errorf("boruvka: phase %d's selections were not kept (KeepPhases %d)", max(first, len(d.kept)+1), len(d.kept))
	}
	if d.ParentPort == nil {
		if err := d.rootTree(); err != nil {
			return err
		}
	}
	n := d.G.N()
	p := newPartition(n)
	a := newAnnotator(n)
	bfs := make([]graph.NodeID, n)
	for phase := 1; phase <= end; phase++ {
		var up []int32
		if phase > 1 {
			up = d.ups[phase-2]
		}
		p.advance(up, d.Workers)
		if phase < first {
			continue
		}
		p.place(d.NumFrags(phase))
		var kp *keptPhase
		if phase <= d.TotalPhases {
			kp = &d.kept[phase-1]
		}
		err := d.annotate(&p, a, bfs, func(w, fi int, root graph.NodeID, level int, order []graph.NodeID) error {
			sv := StreamVisit{Phase: phase, Frag: fi, Root: root, Level: level, BFS: order}
			if kp != nil {
				sv.Active = kp.active[fi]
				if e := kp.sel[fi]; e != -1 {
					sv.HasSel, sv.Sel = true, d.selection(p.fragOf, fi, e)
				}
			}
			return visit(w, sv)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// selection is fragment f's Selection of edge e under the partition
// fragOf: the chooser is e's endpoint inside f.
func (d *Decomposition) selection(fragOf []FragID, f int, e int32) Selection {
	rec := d.G.Edge(graph.EdgeID(e))
	ch := rec.U
	if fragOf[ch] != FragID(f) {
		ch = rec.V
	}
	return Selection{Chooser: ch, Edge: graph.EdgeID(e), Up: d.ParentEdge[ch] == graph.EdgeID(e)}
}

// rootTree roots the MST at d.Root: it fills ParentPort, ParentEdge and
// the flattened tree views that Run's annotation reads. Only Run reads
// them, so the first Run calls it, and a reader of pass 1 alone
// (hier.BuildTiers reads only the contraction maps) never pays for it.
func (d *Decomposition) rootTree() error {
	g, n, workers := d.G, d.G.N(), d.Workers
	parentPort, err := mst.Root(g, d.TreeEdges, d.Root)
	if err != nil {
		return err
	}
	d.ParentPort = parentPort
	d.ParentEdge = make([]graph.EdgeID, n)
	d.parentNode = make([]int32, n)
	d.parentW = make([]graph.Weight, n)
	d.parentPt = make([]int32, n)
	par.Ranges(workers, n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			if parentPort[u] == -1 {
				d.ParentEdge[u] = -1
				d.parentNode[u] = -1
				continue
			}
			h := g.HalfAt(graph.NodeID(u), parentPort[u])
			d.ParentEdge[u] = h.Edge
			d.parentNode[u] = int32(h.To)
			d.parentW[u] = g.Weight(h.Edge)
			d.parentPt[u] = int32(g.DstPort(graph.NodeID(u), parentPort[u]))
		}
	})
	return nil
}

// liveChunk is compactLive's chunk length, in live edges.
const liveChunk = 8192

// compactLive relabels the live list through oldToNew and drops
// intra-fragment edges, in place, returning the survivors as a prefix
// of live. Each chunk compacts within its own range and counts its
// survivors, in parallel; then, in chunk order, each chunk's survivors
// move left to their prefix-sum offset. That offset never passes the
// chunk's start, and every earlier chunk has already moved, so no
// survivor is overwritten before it moves: the list is the sequential
// scan's for any worker count. At one worker (or one chunk) par.Ranges
// runs the first step inline.
func compactLive(live []liveEdge, oldToNew []int32, workers int) []liveEdge {
	nLive := len(live)
	counts := make([]int32, (nLive+liveChunk-1)/liveChunk)
	par.Ranges(workers, len(counts), func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * liveChunk
			k := lo
			for _, le := range live[lo:min(lo+liveChunk, nLive)] {
				nu, nv := oldToNew[le.u], oldToNew[le.v]
				if nu != nv {
					live[k] = liveEdge{le.e, nu, nv}
					k++
				}
			}
			counts[c] = int32(k - lo)
		}
	})
	k := 0
	for c, cnt := range counts {
		lo := c * liveChunk
		k += copy(live[k:], live[lo:lo+int(cnt)])
	}
	return live[:k]
}

// partition is one phase's node-level fragment partition: fragOf maps
// each node to its fragment, and the members of fragment f are
// memFlat[memOff[f]:memOff[f+1]], ascending.
type partition struct {
	fragOf  []FragID
	memOff  []int32
	memFlat []graph.NodeID
}

// newPartition allocates a partition of n nodes with room for as many
// fragments, phase 1's singletons; every later phase rebuilds it in
// place.
func newPartition(n int) partition {
	return partition{
		fragOf:  make([]FragID, n),
		memOff:  make([]int32, n+1),
		memFlat: make([]graph.NodeID, n),
	}
}

// advance moves p's node-to-fragment map on by one phase: to phase 1's
// singletons when up is nil, and otherwise through the contraction map
// up, in place. Kernel fragment IDs are dense in order of smallest
// member node, the order a first-appearance scan over ascending nodes
// assigns, so the IDs match the original sequential construction.
func (p *partition) advance(up []int32, workers int) {
	fragOf := p.fragOf
	par.Ranges(workers, len(fragOf), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			if up == nil {
				fragOf[u] = FragID(u)
			} else {
				fragOf[u] = FragID(up[fragOf[u]])
			}
		}
	})
}

// place lists the members of p's nf fragments by a counting scatter
// over ascending nodes, so each fragment lists its members ascending:
// the order a sort of packed (fragment, node) keys would yield.
func (p *partition) place(nf int) {
	fragOf := p.fragOf
	off := p.memOff[:nf+1]
	clear(off)
	for _, f := range fragOf {
		off[f+1]++
	}
	for f := 0; f < nf; f++ {
		off[f+1] += off[f]
	}
	// off[f] is fragment f's write cursor; once every node is placed it
	// holds f's end, and shifting by one restores the starts.
	for u, f := range fragOf {
		p.memFlat[off[f]] = graph.NodeID(u)
		off[f]++
	}
	copy(off[1:], off[:nf])
	off[0] = 0
	p.memOff = off
}

// annotator is Run's scratch, sized for the largest partition (phase
// 1's n singletons) and shared by every phase: each fragment's root
// and depth in the tree of fragments, the depth climb's stack, and
// fragmentBFS's node-indexed child counters and child arena.
type annotator struct {
	root             []graph.NodeID
	depth            []int32
	stack            []FragID
	start, fill, cnt []int32
	kids             []graph.NodeID
}

func newAnnotator(n int) *annotator {
	return &annotator{
		root:  make([]graph.NodeID, n),
		depth: make([]int32, n),
		stack: make([]FragID, 0, n),
		start: make([]int32, n),
		fill:  make([]int32, n),
		cnt:   make([]int32, n),
		kids:  make([]graph.NodeID, n),
	}
}

// annotate computes root, level and BFS order for every fragment of
// partition p and hands them to visit. Fragments are processed in
// parallel ranges — each owns a disjoint node set, and the BFS orders
// land in bfs (len n) sliced by the member offsets — so visit must only
// touch state owned by its fragment (or per-worker scratch via the
// worker index it receives). A visit error aborts with the lowest
// failing fragment's error, the sequential order's outcome.
func (d *Decomposition) annotate(p *partition, a *annotator, bfs []graph.NodeID, visit func(w, fi int, root graph.NodeID, level int, bfs []graph.NodeID) error) error {
	fragOf, memOff, memFlat := p.fragOf, p.memOff, p.memFlat
	numFrags := len(memOff) - 1
	// Roots: a fragment is a subtree of T, so exactly one member's
	// T-parent lies outside it (or is missing: the global root).
	root := a.root[:numFrags]
	par.Ranges(d.Workers, len(fragOf), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			if parent := d.parentNode[u]; parent == -1 || fragOf[parent] != fragOf[u] {
				root[fragOf[u]] = graph.NodeID(u)
			}
		}
	})
	// A broken partition shows here as a stale root left from an earlier
	// phase, or in fragmentBFS, which panics on a fragment with two roots
	// (a fragment that is not a subtree) when it misses the other one's
	// nodes.
	for f, r := range root {
		if parent := d.parentNode[r]; fragOf[r] != FragID(f) || parent != -1 && fragOf[parent] == FragID(f) {
			panic("boruvka: fragment has no root (internal error)")
		}
	}
	// Levels: a fragment's depth in the tree of fragments T_i is one more
	// than that of the fragment holding its root's T-parent. Each climb
	// stops at a fragment whose depth is known, so together the climbs
	// cost O(fragments).
	depth := a.depth[:numFrags]
	for i := range depth {
		depth[i] = -1
	}
	for f := range FragID(numFrags) {
		stack := a.stack[:0]
		for g := f; depth[g] == -1; {
			parent := d.parentNode[root[g]]
			if parent == -1 {
				depth[g] = 0
				break
			}
			if len(stack) == numFrags {
				panic("boruvka: tree of fragments is disconnected (internal error)")
			}
			stack = append(stack, g)
			g = fragOf[parent]
		}
		for i := len(stack) - 1; i >= 0; i-- {
			g := stack[i]
			depth[g] = depth[fragOf[d.parentNode[root[g]]]] + 1
		}
	}
	// BFS orders and the visit itself, one parallel pass over fragments.
	// Both the orders and the child segments live in flat arenas sliced
	// by the member offsets; the node-indexed count scratch is shared
	// safely because fragments own disjoint nodes.
	fragWorkers := d.Workers
	if numFrags < 64 {
		fragWorkers = 1
	}
	return par.FirstFailure(fragWorkers, numFrags, func(w, lo, hi int) (int, error) {
		for fi := lo; fi < hi; fi++ {
			o, end := memOff[fi], memOff[fi+1]
			order := d.fragmentBFS(a, root[fi], memFlat[o:end:end], fragOf, bfs[o:o:end], a.kids[o:end])
			if err := visit(w, fi, root[fi], int(depth[fi]%2), order); err != nil {
				return fi, err
			}
		}
		return -1, nil
	})
}

// childLess orders tree children by (parent-edge weight, port at the
// parent), the paper's "lower index first".
func (d *Decomposition) childLess(a, b graph.NodeID) int {
	if c := cmp.Compare(d.parentW[a], d.parentW[b]); c != 0 {
		return c
	}
	return cmp.Compare(d.parentPt[a], d.parentPt[b])
}

// fragmentBFS returns the BFS order of T_F from the fragment root, where a
// node's tree children are visited in increasing (edge weight, port at the
// node) order. This is the paper's "BFS guided by the indexes of the edges
// in T_F ... lower index first". The order is written into out (len 0,
// cap |F|) and returned; kids (len |F|) backs the per-parent child
// segments, counted in a's node-indexed scratch.
func (d *Decomposition) fragmentBFS(a *annotator, root graph.NodeID, nodes []graph.NodeID, fragOf []FragID, out, kids []graph.NodeID) []graph.NodeID {
	start, fill, cnt := a.start, a.fill, a.cnt
	// A node's T-parent lies in this fragment iff it exists and shares
	// the fragment (fragments are subtrees of T, so this holds for every
	// non-root member).
	for _, u := range nodes {
		cnt[u] = 0
	}
	fid := fragOf[nodes[0]]
	for _, u := range nodes {
		if p := d.parentNode[u]; p != -1 && fragOf[p] == fid {
			cnt[p]++
		}
	}
	off := int32(0)
	for _, u := range nodes {
		start[u], fill[u] = off, off
		off += cnt[u]
	}
	// Place every child into its parent's segment, then sort each
	// segment once by (edge weight, port at the parent) — the key is
	// strict because siblings hang off distinct parent ports — so a hub
	// with k children costs O(k log k).
	for _, u := range nodes {
		if p := d.parentNode[u]; p != -1 && fragOf[p] == fid {
			kids[fill[p]] = u
			fill[p]++
		}
	}
	for _, u := range nodes {
		if cnt[u] > 1 {
			slices.SortFunc(kids[start[u]:start[u]+cnt[u]], d.childLess)
		}
	}
	// The order slice doubles as the BFS queue: entry qi is expanded after
	// it has been appended.
	order := append(out, root)
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		order = append(order, kids[start[u]:start[u]+cnt[u]]...)
	}
	if len(order) != len(nodes) {
		panic(fmt.Sprintf("boruvka: fragment BFS visited %d of %d nodes (internal error)", len(order), len(nodes)))
	}
	return order
}
