package hier

import (
	"fmt"
	"sort"

	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/store"
)

// HierOptions configures BuildTiers, the oracle-side producer of the
// tiered snapshot section (store version 3).
type HierOptions struct {
	// Levels lists the tower levels to materialize as tiers, 1 being the
	// graph after the first contraction. Levels beyond the tower clamp
	// to the coarsest one; duplicates collapse; the result is ascending.
	// Empty means plan a single level from BudgetBits.
	Levels []int
	// BudgetBits is the per-node advice budget handed to PlanLevel when
	// Levels is empty; ≤ 0 picks the coarsest level.
	BudgetBits int
	// Cap is the packed-advice budget of the coarse Theorem 3 advice
	// written into each tier (0 = core.DefaultCap).
	Cap int
	// Workers sizes the coarse Theorem 3 oracle's pool. The tiers are
	// identical for any worker count, sequential included.
	Workers int
}

// BuildTiers materializes the requested levels of a decomposition's
// contraction tower as store tiers, rooted at d.Root. Level l is the
// partition at the start of phase l+1 (d.FragOf), so the tower's levels
// are 1..TotalPhases-1, and a decomposition with fewer than two phases
// has none. BuildTiers reads only d's contraction maps, so the same
// pass 1 can feed its other readers, and a caller that wants only
// tiers never pays for Run. A tier collects its level's edges by one
// scan of the graph's edge records through that partition, so the
// levels it does not build cost no edge copies. Each tier is a
// self-contained coarse instance: the contracted graph at that level
// (supernodes named by their smallest member's original identifier,
// parallel edges collapsed to the globally smallest one), the
// original-edge hints that ground every coarse edge back in the real
// network, the coarse root, and flat Theorem 3 advice for the coarse
// graph — so a client holding a tier runs the unmodified flat scheme
// on the coarse instance and pays only the hierarchical decoder's
// extra rounds to expand it locally.
//
// Coarse edge weights are the 1-based dense ranks of the surviving
// original edges in the original global order. Ranks are distinct, so
// the coarse graph's own tie-breaking never engages and its unique MST
// is exactly the image of the original MST's remaining edges — the
// invariant TestBuildTiersCoarseMST pins.
func BuildTiers(d *boruvka.Decomposition, opt HierOptions) ([]store.Tier, error) {
	if d.TotalPhases < 2 {
		return nil, nil
	}
	levels := planLevels(d, opt)
	tiers := make([]store.Tier, 0, len(levels))
	for _, l := range levels {
		tier, err := buildTier(d, l, opt)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, tier)
	}
	return tiers, nil
}

// planLevels resolves HierOptions to the ascending list of levels to
// materialize.
func planLevels(d *boruvka.Decomposition, opt HierOptions) []int {
	if len(opt.Levels) == 0 {
		return []int{PlanLevel(d, opt.BudgetBits)}
	}
	coarsest := d.TotalPhases - 1
	seen := make(map[int]bool, len(opt.Levels))
	levels := make([]int, 0, len(opt.Levels))
	for _, l := range opt.Levels {
		l = min(max(l, 1), coarsest)
		if !seen[l] {
			seen[l] = true
			levels = append(levels, l)
		}
	}
	sort.Ints(levels)
	return levels
}

// buildTier materializes one tower level as a store tier.
func buildTier(d *boruvka.Decomposition, l int, opt HierOptions) (store.Tier, error) {
	g := d.G
	phase := levelPhase(d, l)
	frag := d.FragOf(phase)

	// The level's edges are the original edges between two fragments.
	// Collapse the parallel ones: per fragment pair keep the edge that
	// precedes all others in the original global order — the only one
	// any MST of the multigraph can use, whatever the scan order.
	type kept struct {
		e    graph.EdgeID
		u, v int32
	}
	best := make(map[[2]int32]kept)
	for ei, rec := range g.Edges() {
		u, v := frag[rec.U], frag[rec.V]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := graph.EdgeID(ei)
		key := [2]int32{u, v}
		cur, ok := best[key]
		if !ok || g.Key(e).Less(g.Key(cur.e)) {
			best[key] = kept{e: e, u: u, v: v}
		}
	}
	edges := make([]kept, 0, len(best))
	for _, ke := range best {
		edges = append(edges, ke)
	}
	// Ascending original edge IDs: the insertion order of the coarse
	// graph (fixing its ports) and the order the codec's delta-encoded
	// OrigEdge hints require.
	sort.Slice(edges, func(i, j int) bool { return edges[i].e < edges[j].e })

	// Dense 1-based ranks in the original global order become the
	// coarse weights.
	ord := make([]int, len(edges))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(i, j int) bool {
		return g.Key(edges[ord[i]].e).Less(g.Key(edges[ord[j]].e))
	})
	w := make([]graph.Weight, len(edges))
	for rank, idx := range ord {
		w[idx] = graph.Weight(rank + 1)
	}

	// Each supernode is named by its smallest member: scanning the
	// nodes downwards, that member writes last.
	nf := d.NumFrags(phase)
	ids := make([]int64, nf)
	for u := g.N() - 1; u >= 0; u-- {
		ids[frag[u]] = g.IDs()[u]
	}
	b := graph.NewBuilder(nf).SetIDs(ids)
	origEdge := make([]graph.EdgeID, len(edges))
	for i, ke := range edges {
		b.AddEdge(graph.NodeID(ke.u), graph.NodeID(ke.v), w[i])
		origEdge[i] = ke.e
	}
	cg, err := b.Build()
	if err != nil {
		return store.Tier{}, fmt.Errorf("hier: level %d coarse graph: %w", l, err)
	}

	coarseRoot := graph.NodeID(frag[d.Root])
	capBits := opt.Cap
	if capBits <= 0 {
		capBits = core.DefaultCap
	}
	det, err := core.BuildAdviceDetailOpt(cg, coarseRoot, capBits, core.OracleOptions{Workers: opt.Workers})
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
