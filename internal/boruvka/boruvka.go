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
// A Decomposition records, for every phase, the fragment partition, each
// fragment's root (its node closest to the chosen global root in the final
// tree T), its level (the parity of its depth in the "tree of fragments"
// T_i), its selection (chooser node, selected edge, up/down orientation),
// and the BFS ordering of its fragment tree T_F. These are exactly the
// quantities the paper's oracles encode into advice.
//
// The phase kernel is built for n = 10⁶-scale graphs. The cross-fragment
// edge list is contracted in place: each phase relabels the surviving
// edges' endpoints to dense fragment IDs and drops intra-fragment edges,
// so a phase costs O(live + fragments), not O(n + m). Fragment
// partitions are flat index arrays filled by counting passes (no maps),
// and the minimum-outgoing-edge selection runs as per-worker scans over
// contiguous ranges of the live list merged at a barrier. Because the
// global order is a strict total order, every fragment's minimum is
// unique, so the merged result — and hence the whole Decomposition — is
// byte-identical for any worker count (the same contract the round
// engine in internal/sim honors).
//
// See DESIGN.md §2.2 for the decomposition's role in both schemes and
// DESIGN.md §2.5 for the contracted parallel phase kernel.
package boruvka

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

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

// Fragment is the state of one fragment at the start of a phase.
type Fragment struct {
	ID     FragID
	Nodes  []graph.NodeID // ascending node index
	Root   graph.NodeID   // r_F: the fragment node closest to the global root in T
	Level  int            // parity (0 or 1) of the depth of x_F in the rooted tree of fragments T_i
	Active bool
	Sel    *Selection     // nil for passive fragments (and for the lone final fragment)
	BFS    []graph.NodeID // BFS order of T_F from Root; children visited by (weight, port at parent)
}

// Size returns the number of nodes in the fragment.
func (f *Fragment) Size() int { return len(f.Nodes) }

// Phase is the state of the construction at the start of phase Index plus
// the selections made during it.
type Phase struct {
	Index     int // i, starting at 1
	Fragments []Fragment
	FragOf    []FragID // node -> fragment holding it at the start of this phase
}

// ActiveCount returns the number of active fragments in the phase.
func (p *Phase) ActiveCount() int {
	c := 0
	for i := range p.Fragments {
		if p.Fragments[i].Active {
			c++
		}
	}
	return c
}

// Options tune a decomposition run without changing its result.
type Options struct {
	// Workers is the phase-kernel pool size; 0 means GOMAXPROCS. The
	// Decomposition is byte-identical for any value.
	Workers int
	// KeepPhases, when positive, records only the first KeepPhases phase
	// records (the merge simulation always runs to completion, so
	// TotalPhases, TreeEdges, ParentPort, ParentEdge, SelPhase and Final
	// are unaffected). A value larger than the number of phases the run
	// executes is silently clamped: the record simply ends at
	// TotalPhases, and Decomposition.NumPhases reports the count that
	// was actually retained. The Theorem 3 oracle needs only the first
	// ⌈log log n⌉ + 1 phases: a random graph with n = 10⁶ runs 19
	// phases, and the oracle keeps 6. 0 records every phase.
	KeepPhases int
	// KeepTower, when set, retains the full contraction tower — every
	// per-phase partition as its fragment→supernode map and fragment
	// representatives — as Decomposition.Tower. A level keeps no edge
	// list: a level's cross-fragment edges are the graph's edges whose
	// endpoints Tower.FragOf puts in different fragments. The tower is
	// captured as plain copies of the contraction state, after the flat
	// record of each phase is complete, so every flat output stays
	// byte-identical whether or not the tower is kept. KeepPhases does
	// not truncate the tower: the hierarchical codec needs the coarse
	// graphs at levels the flat oracle never records.
	KeepTower bool
}

// Decomposition is the full record of a run of the Borůvka variant.
type Decomposition struct {
	G    *graph.Graph
	Root graph.NodeID

	// Phases[i-1] describes phase i. The last phase is the one whose merges
	// produced a single fragment; phases with no active fragments (possible
	// when early merges overshoot) appear with no selections. With
	// Options.KeepPhases only a leading subset is present.
	Phases []Phase

	// TotalPhases is the number of phases the construction executed,
	// regardless of how many were recorded.
	TotalPhases int

	// Final is the single spanning fragment reached after the last phase,
	// with its BFS order (used by the final stage of the Theorem 3 scheme).
	Final Fragment

	// TreeEdges is the unique MST under the global order, ascending.
	TreeEdges []graph.EdgeID
	// ParentPort[u] is the port at u of its parent edge in T rooted at
	// Root; -1 for the root itself.
	ParentPort []int
	// ParentEdge[u] is the corresponding edge (-1 for the root).
	ParentEdge []graph.EdgeID
	// SelPhase[e] is the phase (1-based) at which tree edge e was selected,
	// 0 for non-tree edges. By Lemma 1 a run ends within ⌈log₂ n⌉ ≤ 31
	// phases, so one byte holds it.
	SelPhase []uint8

	// Tower is the contraction tower, captured only under
	// Options.KeepTower; nil otherwise.
	Tower *Tower

	// Flattened views of the rooted tree, computed once and shared by all
	// phase annotations: the T-parent of u (-1 for the root), the weight
	// of u's parent edge, and its port at the parent.
	parentNode []int32
	parentW    []graph.Weight
	parentPt   []int32
	// Endpoints of TreeEdges (parallel slices), for the per-phase
	// tree-of-fragments construction.
	treeU, treeV []int32
}

// NumPhases returns the number of recorded phases (the number executed,
// unless Options.KeepPhases truncated the record; see TotalPhases).
func (d *Decomposition) NumPhases() int { return len(d.Phases) }

// FragmentsAtStart returns the fragment state at the start of phase i
// (1-based). i may be NumPhases()+1, which yields the final single
// fragment when all phases were recorded.
func (d *Decomposition) FragmentsAtStart(i int) []Fragment {
	if i >= 1 && i <= len(d.Phases) {
		return d.Phases[i-1].Fragments
	}
	if i == len(d.Phases)+1 && len(d.Phases) == d.TotalPhases {
		return []Fragment{d.Final}
	}
	panic(fmt.Sprintf("boruvka: phase %d out of range [1,%d]", i, len(d.Phases)+1))
}

// rawPhase is the pass-1 record of one kept phase, and holds only
// fragment-indexed data: up maps the previous phase's fragments to this
// phase's (nil for phase 1, whose fragments are the nodes), and active
// and sel are indexed by this phase's fragments (sel is the selected
// edge, -1 if none). Pass 2 rebuilds the node-level partition from the
// up maps (partition.build).
type rawPhase struct {
	up     []int32
	active []bool
	sel    []int32
}

// liveEdge is one entry of the contracted cross-fragment edge list: the
// original edge plus its endpoints relabelled to current fragment IDs.
type liveEdge struct {
	e    int32 // EdgeID
	u, v int32 // endpoint fragment IDs for the current phase
}

// Decompose runs the variant on a connected graph and records every phase.
func Decompose(g *graph.Graph, root graph.NodeID) (*Decomposition, error) {
	return DecomposeOpt(g, root, Options{})
}

// DecomposeOpt is Decompose with an explicit worker count and phase
// retention; the result is byte-identical for any Options.Workers.
func DecomposeOpt(g *graph.Graph, root graph.NodeID, opt Options) (*Decomposition, error) {
	d, raws, workers, err := decomposePass1(g, root, opt)
	if err != nil {
		return nil, err
	}
	if err := d.rootTree(workers); err != nil {
		return nil, err
	}
	n := g.N()

	// ---- Pass 2: enrich every recorded phase with roots, levels,
	// orientations and BFS orders, all defined relative to the final
	// rooted tree T. Each phase's partition and BFS orders get fresh
	// buffers, since the records keep them; the annotation scratch is
	// shared by every phase.
	a := newAnnotator(n)
	var prev []FragID
	for pi := range raws {
		raw := &raws[pi]
		nf := len(raw.active)
		p := newPartition(n, nf)
		p.build(raw.up, prev, nf, workers)
		prev = p.fragOf
		frags := make([]Fragment, nf)
		for f := range frags {
			frags[f] = Fragment{ID: FragID(f), Nodes: p.members(f), Active: raw.active[f]}
		}
		d.annotateInto(frags, &p, a, workers)
		// Selections live in one per-phase slab instead of one allocation
		// per selecting fragment (phase 1 alone has ~n of them).
		nSel := 0
		for _, e := range raw.sel {
			if e != -1 {
				nSel++
			}
		}
		selSlab := make([]Selection, 0, nSel)
		for f, e := range raw.sel {
			if e != -1 {
				selSlab = append(selSlab, d.selection(p.fragOf, f, e))
				frags[f].Sel = &selSlab[len(selSlab)-1]
			}
		}
		d.Phases = append(d.Phases, Phase{Index: pi + 1, Fragments: frags, FragOf: p.fragOf})
	}

	// Final single fragment.
	p := newPartition(n, 1)
	p.build(nil, nil, 1, workers)
	final := []Fragment{{ID: 0, Nodes: p.members(0)}}
	d.annotateInto(final, &p, a, workers)
	d.Final = final[0]

	return d, nil
}

// StreamVisit is one annotated fragment as Stream.Run delivers it.
// BFS is a view into an arena Run reuses from phase to phase, so it is
// valid only during the visit; Sel is meaningful only when HasSel is
// set. Final marks the fragments of the partition the fused oracle
// treats as the final stage — the KeepPhases-th recorded phase when the
// run reaches it, otherwise the synthesized single spanning fragment.
type StreamVisit struct {
	Phase  int // 1-based phase index the partition belongs to
	Frag   int // dense fragment ID within the phase
	Final  bool
	Active bool
	Root   graph.NodeID
	Level  int
	BFS    []graph.NodeID
	HasSel bool
	Sel    Selection
}

// Stream is a decomposition whose pass 2 has not run yet. D's TreeEdges,
// SelPhase, TotalPhases and Tower are complete on return from
// NewStream; ParentPort and ParentEdge once Run starts, which roots the
// tree before its first visit, so a Run visitor may read them all. A
// consumer of the tower alone never calls Run and never pays for the
// rooting. D never grows Phases or Final records (NumPhases() stays 0).
type Stream struct {
	D       *Decomposition
	raws    []rawPhase
	keep    int
	workers int
}

// NewStream runs pass 1 of the construction (identical to DecomposeOpt)
// and defers the rooting and the annotation to Run. See DESIGN.md
// §2.12.
func NewStream(g *graph.Graph, root graph.NodeID, opt Options) (*Stream, error) {
	d, raws, workers, err := decomposePass1(g, root, opt)
	if err != nil {
		return nil, err
	}
	return &Stream{D: d, raws: raws, keep: opt.KeepPhases, workers: workers}, nil
}

// FinalFrags returns the number of fragments Run flags Final: those of
// the KeepPhases-th phase when the run reaches it, otherwise 1 (the
// synthesized spanning fragment). Final visits carry Frag in
// [0, FinalFrags()).
func (s *Stream) FinalFrags() int {
	if s.keep > 0 && len(s.raws) >= s.keep {
		return len(s.raws[s.keep-1].active)
	}
	return 1
}

// Run fuses pass 2 with its consumer: instead of materialising Phase
// and Fragment records, each annotated fragment is handed to visit
// exactly once, in ascending phase order with a barrier between phases.
// Within a phase, visits run concurrently across fragments (visit
// receives the worker index for per-worker scratch and must only touch
// fragment-local or worker-local state); a visit error aborts the
// stream with the lowest (phase, fragment) failure, matching sequential
// semantics. One phase is resident at a time: the partition, the BFS
// arena and the annotation scratch are allocated once, for phase 1's n
// singletons, and rebuilt in place for every later phase.
//
// Phases 1..min(KeepPhases, TotalPhases) are streamed (all phases when
// KeepPhases <= 0). The phase numbered KeepPhases is flagged Final; if
// the run completes before reaching it, the single spanning fragment is
// synthesized and streamed as phase TotalPhases+1 with Final set — the
// same partition FragmentsAtStart(NumPhases()+1) exposes on the rich
// path.
func (s *Stream) Run(visit func(w int, v StreamVisit) error) error {
	d := s.D
	if err := d.rootTree(s.workers); err != nil {
		return err
	}
	n := d.G.N()
	p := newPartition(n, n)
	a := newAnnotator(n)
	bfs := make([]graph.NodeID, n)
	stream := func(phase int, final bool, raw *rawPhase) error {
		return d.annotate(&p, a, bfs, s.workers, func(w, fi int, v fragView) error {
			sv := StreamVisit{
				Phase: phase,
				Frag:  fi,
				Final: final,
				Root:  v.root,
				Level: v.level,
				BFS:   v.bfs,
			}
			if raw != nil {
				sv.Active = raw.active[fi]
				if e := raw.sel[fi]; e != -1 {
					sv.HasSel, sv.Sel = true, d.selection(p.fragOf, fi, e)
				}
			}
			return visit(w, sv)
		})
	}
	for pi := range s.raws {
		raw := &s.raws[pi]
		p.build(raw.up, p.fragOf, len(raw.active), s.workers)
		if err := stream(pi+1, s.keep > 0 && pi+1 == s.keep, raw); err != nil {
			return err
		}
	}
	if s.keep <= 0 || len(s.raws) < s.keep {
		// The run ended inside the retention budget: stream the spanning
		// fragment as the final stage.
		p.build(nil, nil, 1, s.workers)
		return stream(d.TotalPhases+1, true, nil)
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

// decomposePass1 runs the merge simulation (pass 1) and builds the flat
// outputs other than the rooted tree: the tree edges, SelPhase,
// TotalPhases, the tower when asked for, and the kept phases' records
// for pass 2.
func decomposePass1(g *graph.Graph, root graph.NodeID, opt Options) (*Decomposition, []rawPhase, int, error) {
	n := g.N()
	if n == 0 {
		return nil, nil, 0, fmt.Errorf("boruvka: empty graph")
	}
	if int(root) < 0 || int(root) >= n {
		return nil, nil, 0, fmt.Errorf("boruvka: root %d out of range", root)
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

	// ---- Pass 1: simulate the phases, recording each kept phase's
	// contraction map, active flags and selections.
	dsu := unionfind.New(n)
	var raws []rawPhase
	treeCount := 0
	selPhase := make([]uint8, m)

	// Contracted fragment state: numFrags current fragments, repNode[f]
	// the smallest node of fragment f, fsize[f] its node count. rootFrag/
	// rootStamp map DSU roots to dense new-fragment IDs without a map;
	// fill drives counting sorts; bests hold per-worker selection minima.
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

	var tower *Tower
	if opt.KeepTower {
		tower = &Tower{G: g}
	}

	phases := 0
	for i := 1; dsu.Sets() > 1; i++ {
		if i > 31 {
			// Lemma 1: after phase i every fragment has at least 2^i
			// nodes, and n ≤ MaxInt32.
			return nil, nil, 0, fmt.Errorf("boruvka: phase bound exceeded (internal error)")
		}
		phases = i
		record := opt.KeepPhases <= 0 || len(raws) < opt.KeepPhases

		prevFrags := numFrags
		if i > 1 {
			// Contract: relabel last phase's fragments to dense new IDs in
			// order of first appearance. Old IDs are ordered by smallest
			// member node and scanned ascending, so new IDs are too.
			stamp := int32(i)
			newNum := int32(0)
			for f := 0; f < numFrags; f++ {
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
			numFrags = int(newNum)
			// Relabel the live list and drop intra-fragment edges, in
			// place; the compacted list is the sequential one for any
			// worker count or schedule.
			live = compactLive(live, oldToNew, workers)

			if tower != nil {
				// Snapshot the freshly contracted partition as tower level
				// i-1: the graph the start of phase i sees. Pure copies —
				// the phase kernel below never observes them.
				tower.Levels = append(tower.Levels, TowerLevel{
					Phase:    i,
					NumFrags: numFrags,
					Up:       append([]int32(nil), oldToNew[:prevFrags]...),
					Rep:      append([]int32(nil), repNode[:numFrags]...),
				})
			}
		}
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

		if record {
			// Recording is always a prefix of the phases, so pass 2 rebuilds
			// each node-level partition from the previous one through the
			// contraction map: no per-node data is kept here.
			raw := rawPhase{active: slices.Clone(active[:nf]), sel: slices.Clone(bests[0][:nf])}
			if i > 1 {
				raw.up = slices.Clone(oldToNew[:prevFrags])
			}
			raws = append(raws, raw)
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
				return nil, nil, 0, fmt.Errorf("boruvka: selected edges formed a cycle (internal error)")
			}
		}
	}

	if treeCount != n-1 {
		return nil, nil, 0, fmt.Errorf("boruvka: graph is disconnected (%d tree edges for %d nodes)", treeCount, n)
	}
	// The tree edges, ascending: exactly the selected ones.
	treeEdges := make([]graph.EdgeID, 0, n-1)
	for e, ph := range selPhase {
		if ph != 0 {
			treeEdges = append(treeEdges, graph.EdgeID(e))
		}
	}

	d := &Decomposition{G: g, Root: root, TotalPhases: phases, TreeEdges: treeEdges, SelPhase: selPhase, Tower: tower}
	return d, raws, workers, nil
}

// rootTree roots the MST at d.Root: it fills ParentPort, ParentEdge and
// the flattened tree views that pass 2's annotation reads. Only pass 2
// reads them, so DecomposeOpt and Stream.Run run it first, and a
// consumer of pass 1 alone (hier.BuildTiers reads only the tower) never
// pays for it.
func (d *Decomposition) rootTree(workers int) error {
	g, n := d.G, d.G.N()
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
	d.treeU = make([]int32, n-1)
	d.treeV = make([]int32, n-1)
	par.Ranges(workers, n-1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rec := g.Edge(d.TreeEdges[i])
			d.treeU[i], d.treeV[i] = int32(rec.U), int32(rec.V)
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

// newPartition allocates a partition of n nodes with room for nf
// fragments.
func newPartition(n, nf int) partition {
	return partition{
		fragOf:  make([]FragID, n),
		memOff:  make([]int32, nf+1),
		memFlat: make([]graph.NodeID, n),
	}
}

// build fills p with a partition of nf fragments: the spanning fragment
// when nf == 1, the singletons of phase 1 when up is nil, and otherwise
// prev's fragments mapped through the contraction map up (prev may be
// p.fragOf, which is then remapped in place). Kernel fragment IDs are
// dense in order of smallest member node, the order a first-appearance
// scan over ascending nodes assigns, so the IDs match the original
// sequential construction. Members are placed by a counting scatter
// over ascending nodes, so each fragment lists its members ascending:
// the order a sort of packed (fragment, node) keys would yield.
func (p *partition) build(up []int32, prev []FragID, nf, workers int) {
	fragOf := p.fragOf
	par.Ranges(workers, len(fragOf), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			f := FragID(0)
			if nf > 1 {
				if up == nil {
					f = FragID(u)
				} else {
					f = FragID(up[prev[u]])
				}
			}
			fragOf[u] = f
		}
	})
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

// members returns fragment f's nodes, ascending.
func (p *partition) members(f int) []graph.NodeID {
	return p.memFlat[p.memOff[f]:p.memOff[f+1]:p.memOff[f+1]]
}

// fragView is the annotation of one fragment as annotate streams it:
// the root, the level parity, and the BFS order (a view into the
// caller's BFS arena).
type fragView struct {
	root  graph.NodeID
	level int
	bfs   []graph.NodeID
}

// annotator is pass 2's scratch, sized for the largest partition (phase
// 1's n singletons) and shared by every phase: the tree of fragments as
// a CSR (fdeg, fcur, fadj) with its BFS depths and queue, and
// fragmentBFS's node-indexed child counters and child arena.
type annotator struct {
	fdeg, fcur, depth []int32
	fadj, queue       []FragID
	start, fill, cnt  []int32
	kids              []graph.NodeID
}

func newAnnotator(n int) *annotator {
	return &annotator{
		fdeg:  make([]int32, n+1),
		fcur:  make([]int32, n),
		depth: make([]int32, n),
		fadj:  make([]FragID, 2*(n-1)), // every tree edge crosses phase 1's fragments
		queue: make([]FragID, 0, n),
		start: make([]int32, n),
		fill:  make([]int32, n),
		cnt:   make([]int32, n),
		kids:  make([]graph.NodeID, n),
	}
}

// annotateInto fills Root, Level and BFS for every fragment of partition
// p, into a fresh BFS arena the records keep.
func (d *Decomposition) annotateInto(frags []Fragment, p *partition, a *annotator, workers int) {
	bfs := make([]graph.NodeID, len(p.fragOf))
	err := d.annotate(p, a, bfs, workers, func(_, fi int, v fragView) error {
		frags[fi].Root = v.root
		frags[fi].Level = v.level
		frags[fi].BFS = v.bfs
		return nil
	})
	if err != nil {
		panic(err) // the visitor above never fails
	}
}

// annotate computes root, level and BFS order for every fragment of
// partition p and hands each fragment's view to visit. Fragments are
// processed in parallel ranges — each owns a disjoint node set, and the
// BFS orders land in bfs (len n) sliced by the member offsets — so
// visit must only touch state owned by its fragment (or per-worker
// scratch via the worker index it receives). A visit error aborts with
// the lowest failing fragment's error, the sequential order's outcome.
//
// This is the engine behind both the rich Phase records and the fused
// streaming pass: the fused oracle consumes each view in place instead
// of materialising Fragment structs (DESIGN.md §2.12).
func (d *Decomposition) annotate(p *partition, a *annotator, bfs []graph.NodeID, workers int, visit func(w, fi int, v fragView) error) error {
	fragOf, memOff, memFlat := p.fragOf, p.memOff, p.memFlat
	numFrags := len(memOff) - 1
	fragWorkers := workers
	if numFrags < 64 {
		fragWorkers = 1
	}
	// Levels: BFS over the tree of fragments T_i from the fragment
	// holding the global root. The adjacency is a CSR over the
	// cross-fragment tree edges, built with atomic counters — slot order
	// varies by schedule, but BFS depths are hop distances, so the level
	// parities are schedule-independent.
	edgeWorkers := par.WorkersFor(workers, len(d.treeU))
	fdeg := a.fdeg[:numFrags+1]
	clear(fdeg)
	par.Ranges(edgeWorkers, len(d.treeU), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fu, fv := fragOf[d.treeU[i]], fragOf[d.treeV[i]]
			if fu != fv {
				atomic.AddInt32(&fdeg[fu+1], 1)
				atomic.AddInt32(&fdeg[fv+1], 1)
			}
		}
	})
	for f := 0; f < numFrags; f++ {
		fdeg[f+1] += fdeg[f]
	}
	fadj := a.fadj[:fdeg[numFrags]]
	fcur := a.fcur[:numFrags]
	copy(fcur, fdeg[:numFrags])
	par.Ranges(edgeWorkers, len(d.treeU), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fu, fv := fragOf[d.treeU[i]], fragOf[d.treeV[i]]
			if fu != fv {
				fadj[atomic.AddInt32(&fcur[fu], 1)-1] = fv
				fadj[atomic.AddInt32(&fcur[fv], 1)-1] = fu
			}
		}
	})
	rootFrag := fragOf[d.Root]
	depth := a.depth[:numFrags]
	for i := range depth {
		depth[i] = -1
	}
	depth[rootFrag] = 0
	queue := append(a.queue[:0], rootFrag)
	for qi := 0; qi < len(queue); qi++ {
		f := queue[qi]
		for _, nb := range fadj[fdeg[f]:fcur[f]] {
			if depth[nb] == -1 {
				depth[nb] = depth[f] + 1
				queue = append(queue, nb)
			}
		}
	}
	// Roots, BFS orders and the visit itself, one parallel pass over
	// fragments. Both the orders and the child segments live in flat
	// arenas sliced by the member offsets; the node-indexed count
	// scratch is shared safely because fragments own disjoint nodes.
	return par.FirstFailure(fragWorkers, numFrags, func(w, lo, hi int) (int, error) {
		for fi := lo; fi < hi; fi++ {
			if depth[fi] == -1 {
				panic("boruvka: tree of fragments is disconnected (internal error)")
			}
			o, end := memOff[fi], memOff[fi+1]
			nodes := memFlat[o:end:end]
			// Root: the unique node whose T-parent edge leaves the
			// fragment (or the global root).
			root := graph.NodeID(-1)
			for _, u := range nodes {
				parent := d.parentNode[u]
				if parent == -1 || fragOf[parent] != FragID(fi) {
					if root != -1 {
						panic("boruvka: two roots in one fragment (internal error)")
					}
					root = u
				}
			}
			order := d.fragmentBFS(a, root, nodes, fragOf, bfs[o:o:end], a.kids[o:end])
			if err := visit(w, fi, fragView{root: root, level: int(depth[fi] % 2), bfs: order}); err != nil {
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
