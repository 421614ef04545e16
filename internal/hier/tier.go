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
// contraction tower as store tiers; root is the decomposition's root.
// The caller runs the decomposition with Options.KeepTower, so the same
// pass 1 can feed its other consumers. The tower holds only each
// level's node partition; a tier collects its level's edges by one scan
// of the graph's edge records through that partition, so the levels it
// does not build cost no edge copies. Each tier is a
// self-contained coarse instance: the contracted graph at that level
// (supernodes named by their representative's original identifier,
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
func BuildTiers(tw *boruvka.Tower, root graph.NodeID, opt HierOptions) ([]store.Tier, error) {
	if tw.NumLevels() == 0 {
		return nil, nil
	}
	levels := planLevels(tw, opt)
	tiers := make([]store.Tier, 0, len(levels))
	for _, l := range levels {
		tier, err := buildTier(tw, root, l, opt)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, tier)
	}
	return tiers, nil
}

// planLevels resolves HierOptions to the ascending list of levels to
// materialize.
func planLevels(tw *boruvka.Tower, opt HierOptions) []int {
	if len(opt.Levels) == 0 {
		return []int{PlanLevel(tw, opt.BudgetBits)}
	}
	seen := make(map[int]bool, len(opt.Levels))
	levels := make([]int, 0, len(opt.Levels))
	for _, l := range opt.Levels {
		if l < 1 {
			l = 1
		}
		if l > tw.NumLevels() {
			l = tw.NumLevels()
		}
		if !seen[l] {
			seen[l] = true
			levels = append(levels, l)
		}
	}
	sort.Ints(levels)
	return levels
}

// buildTier materializes one tower level as a store tier.
func buildTier(tw *boruvka.Tower, root graph.NodeID, l int, opt HierOptions) (store.Tier, error) {
	g := tw.G
	lev := tw.Level(l)
	frag := tw.FragOf(l)

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

	ids := make([]int64, lev.NumFrags)
	for f, rep := range lev.Rep {
		ids[f] = g.IDs()[rep]
	}
	b := graph.NewBuilder(lev.NumFrags).SetIDs(ids)
	origEdge := make([]graph.EdgeID, len(edges))
	for i, ke := range edges {
		b.AddEdge(graph.NodeID(ke.u), graph.NodeID(ke.v), w[i])
		origEdge[i] = ke.e
	}
	cg, err := b.Build()
	if err != nil {
		return store.Tier{}, fmt.Errorf("hier: level %d coarse graph: %w", l, err)
	}

	coarseRoot := graph.NodeID(frag[root])
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
