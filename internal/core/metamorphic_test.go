package core

import (
	"context"
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
	"mstadvice/internal/sim"
)

// reweightRun is what one graph yields: the oracle's advice, the MST edge
// set, and a verified decode's parent ports and MST weight.
type reweightRun struct {
	advice  []*bitstring.BitString
	tree    []graph.EdgeID
	parents []int
	weight  graph.Weight
}

func runReweighted(t *testing.T, g *graph.Graph) reweightRun {
	t.Helper()
	adv, err := BuildAdvice(g, 0, DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(tree)
	res, err := advice.DecodeCtx(context.Background(), Scheme{}, g, 0, adv, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("decode not verified: %v", res.VerifyErr)
	}
	return reweightRun{adv, tree, res.ParentPorts, res.Output.(advice.MSTOutput).Weight}
}

// TestOrderPreservingReweighting checks the first metamorphic relation of
// the paper's model: oracle, decoder and MST see weights only through the
// local and global orders, so mapping every weight through the strictly
// increasing w → 3w + 7 leaves the advice bytes, the MST edge set and the
// decoded parent ports unchanged and maps the MST weight W to
// 3W + 7(n−1). The reweighted graph is built twice, in place by one
// ApplyBatch on a clone and from scratch by FromEdgeList, so a reader
// holding a stale copy of a weight on either path shows as a difference.
func TestOrderPreservingReweighting(t *testing.T) {
	remap := func(w graph.Weight) graph.Weight { return 3*w + 7 }
	for _, family := range []string{"random", "grid", "star", "complete", "caterpillar"} {
		for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
			g := seeded(t, family, 200, 11, mode)
			base := runReweighted(t, g)
			recs := slices.Clone(g.Edges())
			var batch graph.Batch
			for e := range recs {
				recs[e].W = remap(recs[e].W)
				batch.Weights = append(batch.Weights, graph.WeightUpdate{Edge: graph.EdgeID(e), W: recs[e].W})
			}
			patched := g.Clone()
			if err := patched.ApplyBatch(batch); err != nil {
				t.Fatalf("%s/%v: ApplyBatch: %v", family, mode, err)
			}
			rebuilt, err := graph.FromEdgeList(g.N(), slices.Clone(g.IDs()), recs, 0)
			if err != nil {
				t.Fatalf("%s/%v: FromEdgeList: %v", family, mode, err)
			}
			wantWeight := 3*base.weight + 7*graph.Weight(g.N()-1)
			for _, v := range []struct {
				path string
				g    *graph.Graph
			}{{"ApplyBatch", patched}, {"FromEdgeList", rebuilt}} {
				got := runReweighted(t, v.g)
				for u := range base.advice {
					if !got.advice[u].Equal(base.advice[u]) {
						t.Fatalf("%s/%v via %s: advice of node %d is %v, want %v",
							family, mode, v.path, u, got.advice[u], base.advice[u])
					}
				}
				if !slices.Equal(got.tree, base.tree) {
					t.Fatalf("%s/%v via %s: Kruskal edge set changed", family, mode, v.path)
				}
				if !slices.Equal(got.parents, base.parents) {
					t.Fatalf("%s/%v via %s: decoded parent ports changed", family, mode, v.path)
				}
				if got.weight != wantWeight {
					t.Fatalf("%s/%v via %s: MST weight %d, want 3·%d + 7·%d = %d",
						family, mode, v.path, got.weight, base.weight, g.N()-1, wantWeight)
				}
			}
		}
	}
}
