package hier

import (
	"fmt"
	"math/bits"
	"slices"

	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/store"
)

// BuildTiers materializes levels of a decomposition's contraction tower
// as store tiers, rooted at d.Root, with coarse Theorem 3 advice under
// capBits (0 = core.DefaultCap), on d.Workers workers. Level l is the
// partition at the start of phase l+1 (d.FragOf), so the tower's levels
// are 1..TotalPhases-1, and a decomposition with fewer than two phases
// has none. Levels beyond the tower clamp to the coarsest one, below it
// to 1; duplicates collapse, and the tiers come in ascending level
// order. An empty list builds no tier. BuildTiers reads only d's
// contraction maps, so the same pass 1 can feed its other readers, and
// a caller that wants only tiers never pays for Run. A tier collects its
// level's edges by scanning the graph's edge records through that
// partition, so the levels it does not build cost no edge copies. Each
// tier is a self-contained coarse instance: the contracted graph at
// that level (supernodes named by their smallest member's original
// identifier, parallel edges collapsed to the globally smallest one),
// the original-edge hints that ground every coarse edge back in the
// real network, the coarse root, and flat Theorem 3 advice for the
// coarse graph — so a client holding a tier runs the unmodified flat
// scheme on the coarse instance and pays only the hierarchical
// decoder's extra rounds to expand it locally. The tiers are identical
// for any worker count.
//
// Coarse edge weights are the 1-based dense ranks of the surviving
// original edges in the original global order. Ranks are distinct, so
// the coarse graph's own tie-breaking never engages and its unique MST
// is exactly the image of the original MST's remaining edges — the
// invariant TestBuildTiersCoarseMST pins.
func BuildTiers(d *boruvka.Decomposition, levels []int, capBits int) ([]store.Tier, error) {
	if d.TotalPhases < 2 || len(levels) == 0 {
		return nil, nil
	}
	coarsest := d.TotalPhases - 1
	levels = slices.Clone(levels)
	for i, l := range levels {
		levels[i] = min(max(l, 1), coarsest)
	}
	slices.Sort(levels)
	levels = slices.Compact(levels)
	if capBits <= 0 {
		capBits = core.DefaultCap
	}
	tiers := make([]store.Tier, 0, len(levels))
	for _, l := range levels {
		tier, err := buildTier(d, l, capBits)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, tier)
	}
	return tiers, nil
}

// buildTier materializes one tower level as a store tier.
func buildTier(d *boruvka.Decomposition, l, capBits int) (store.Tier, error) {
	g, edges := d.G, d.G.Edges()
	phase := levelPhase(d, l)
	frag := d.FragOf(phase)
	nf := d.NumFrags(phase)

	// The level's edges are the original edges between two fragments.
	// A counting sort groups them by their smaller fragment, ascending
	// edge ID within a group: group a is byLo[end[a-1]:end[a]].
	end := make([]int32, nf+1)
	for _, rec := range edges {
		if u, v := frag[rec.U], frag[rec.V]; u != v {
			end[min(u, v)+1]++
		}
	}
	for a := range nf {
		end[a+1] += end[a]
	}
	byLo := make([]graph.EdgeID, end[nf])
	for ei, rec := range edges {
		if u, v := frag[rec.U], frag[rec.V]; u != v {
			a := min(u, v)
			byLo[end[a]] = graph.EdgeID(ei)
			end[a]++
		}
	}

	// Collapse the parallel ones: per fragment pair keep the edge that
	// precedes all others in the original global order — the only one
	// any MST of the multigraph can use. The kept edges are compacted in
	// place to the front of byLo. Within group a, stamp[b] = a+1 marks
	// that the pair {a, b} has kept edge kept[slot[b]], so its first
	// edge is kept and each later parallel edge costs one comparison.
	stamp := make([]int32, nf)
	slot := make([]int32, nf)
	kept := byLo[:0]
	lo := int32(0)
	for a := range int32(nf) {
		for _, e := range byLo[lo:end[a]] {
			b := max(frag[edges[e].U], frag[edges[e].V])
			if stamp[b] != a+1 {
				stamp[b], slot[b] = a+1, int32(len(kept))
				kept = append(kept, e)
			} else if g.EdgeLess(e, kept[slot[b]]) {
				kept[slot[b]] = e
			}
		}
		lo = end[a]
	}

	// Ascending original edge IDs are the insertion order of the coarse
	// graph, fixing its ports as AddEdge would, and the order the codec's
	// delta-encoded OrigEdge hints require. A bit per original edge marks
	// the kept ones, so one scan lists them in that order, and below[w]
	// counts the kept edges below bit word w, so an edge's coarse ID is
	// one popcount away.
	marks := make([]uint64, (len(edges)+63)/64)
	for _, e := range kept {
		marks[e/64] |= 1 << (e % 64)
	}
	below := make([]int32, len(marks))
	origEdge := make([]graph.EdgeID, 0, len(kept))
	for w, word := range marks {
		below[w] = int32(len(origEdge))
		for ; word != 0; word &= word - 1 {
			origEdge = append(origEdge, graph.EdgeID(w*64+bits.TrailingZeros64(word)))
		}
	}
	recs := make([]graph.Edge, len(kept))
	ports := make([]int32, nf)
	for i, e := range origEdge {
		u, v := frag[edges[e].U], frag[edges[e].V]
		u, v = min(u, v), max(u, v)
		recs[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), PU: ports[u], PV: ports[v]}
		ports[u]++
		ports[v]++
	}
	// Dense 1-based ranks in the original global order become the
	// coarse weights.
	g.SortGlobal(d.Workers, kept)
	for rank, e := range kept {
		i := below[e/64] + int32(bits.OnesCount64(marks[e/64]&(1<<(e%64)-1)))
		recs[i].W = graph.Weight(rank + 1)
	}

	// Each supernode is named by its smallest member: scanning the
	// nodes downwards, that member writes last.
	ids := make([]int64, nf)
	for u := g.N() - 1; u >= 0; u-- {
		ids[frag[u]] = g.IDs()[u]
	}
	cg, err := graph.FromEdgeList(nf, ids, recs, d.Workers)
	if err != nil {
		return store.Tier{}, fmt.Errorf("hier: level %d coarse graph: %w", l, err)
	}

	coarseRoot := graph.NodeID(frag[d.Root])
	det, err := core.BuildAdviceDetailOpt(cg, coarseRoot, capBits, core.OracleOptions{Workers: d.Workers})
	if err != nil {
		return store.Tier{}, fmt.Errorf("hier: level %d coarse advice: %w", l, err)
	}
	return store.Tier{
		Level:    l,
		Graph:    cg,
		Root:     coarseRoot,
		OrigEdge: origEdge,
		Advice:   det.Advice,
	}, nil
}
