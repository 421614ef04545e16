package hier_test

import (
	"reflect"
	"runtime"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/hier"
	"mstadvice/internal/reference"
	"mstadvice/internal/store"
)

// TestBuildTiersCoarseMST pins the tier construction invariant: the
// coarse graph's unique MST, mapped through the original-edge hints, is
// exactly the set of original MST edges still uncontracted at that
// level (the parent edges of the level's fragment roots). The fragments
// and both MSTs come from internal/reference.
func TestBuildTiersCoarseMST(t *testing.T) {
	g := seeded(t, "random", 300, 31, gen.WeightsDistinct)
	root := graph.NodeID(7)
	tiers, err := hier.BuildTiers(tower(t, g, root, 0), hier.HierOptions{Levels: []int{1, 2, 3, 4, 5, 6, 7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	phases := reference.Boruvka(g, root)
	if want := len(phases) - 2; len(tiers) != want {
		t.Fatalf("%d tiers, want one per tower level (%d)", len(tiers), want)
	}
	parents := reference.Parents(g, root)
	for _, tier := range tiers {
		frags := phases[tier.Level]
		if tier.Graph.N() != len(frags) {
			t.Fatalf("level %d: %d coarse nodes, want %d", tier.Level, tier.Graph.N(), len(frags))
		}
		for f, fr := range frags {
			if tier.Graph.IDs()[f] != g.IDs()[fr.Nodes[0]] {
				t.Fatalf("level %d: coarse node %d named %d, want its smallest member's %d",
					tier.Level, f, tier.Graph.IDs()[f], g.IDs()[fr.Nodes[0]])
			}
			if fr.Root == root && tier.Root != graph.NodeID(f) {
				t.Fatalf("level %d: coarse root %d, want %d", tier.Level, tier.Root, f)
			}
		}
		for i := 1; i < len(tier.OrigEdge); i++ {
			if tier.OrigEdge[i] <= tier.OrigEdge[i-1] {
				t.Fatalf("level %d: original-edge hints not ascending at %d", tier.Level, i)
			}
		}

		want := map[graph.EdgeID]bool{}
		for _, f := range phases[tier.Level] {
			if f.Root != root {
				want[g.HalfAt(f.Root, parents[f.Root]).Edge] = true
			}
		}
		got := map[graph.EdgeID]bool{}
		for _, ce := range reference.Kruskal(tier.Graph) {
			got[tier.OrigEdge[ce]] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("level %d: coarse MST maps to %d original edges, want the %d uncontracted MST edges",
				tier.Level, len(got), len(want))
		}
	}
}

// TestBuildTiersSnapshotRoundTrip pins the join between the tier
// builder and the version-3 codec: real tiers survive Encode/Decode.
func TestBuildTiersSnapshotRoundTrip(t *testing.T) {
	g := seeded(t, "random", 120, 32, gen.WeightsDistinct)
	tiers, err := hier.BuildTiers(tower(t, g, 0, 0), hier.HierOptions{Levels: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) == 0 {
		t.Fatal("no tiers built")
	}
	blob, err := store.Encode(&store.Snapshot{Problem: "mst", Graph: g, Root: 0, Cap: 12, Tiers: tiers})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tiers) != len(tiers) {
		t.Fatalf("decoded %d tiers, want %d", len(snap.Tiers), len(tiers))
	}
	for i := range tiers {
		w, got := &tiers[i], &snap.Tiers[i]
		if got.Level != w.Level || got.Root != w.Root ||
			got.Graph.N() != w.Graph.N() || got.Graph.M() != w.Graph.M() {
			t.Fatalf("tier %d header differs after round trip", i)
		}
		if !reflect.DeepEqual(got.OrigEdge, w.OrigEdge) {
			t.Fatalf("tier %d original-edge hints differ after round trip", i)
		}
		if !reflect.DeepEqual(got.Graph.Edges(), w.Graph.Edges()) {
			t.Fatalf("tier %d coarse edges differ after round trip", i)
		}
		for u := range w.Advice {
			if !got.Advice[u].Equal(w.Advice[u]) {
				t.Fatalf("tier %d node %d coarse advice differs after round trip", i, u)
			}
		}
	}
}

// TestBuildTiersWorkerDeterminism pins the oracle contract for the tier
// builder: identical tiers for any worker count, in the decomposition
// and the coarse oracle alike.
func TestBuildTiersWorkerDeterminism(t *testing.T) {
	g := seeded(t, "random", 250, 33, gen.WeightsDistinct)
	ref, err := hier.BuildTiers(tower(t, g, 3, 1), hier.HierOptions{Levels: []int{1, 2, 3}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := hier.BuildTiers(tower(t, g, 3, workers), hier.HierOptions{Levels: []int{1, 2, 3}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: tiers differ from sequential build", workers)
		}
	}
}

// TestBuildTiersPlanned pins the Levels-empty path: one tier at the
// planner's level, coarsest when there is no budget, and clamping of
// out-of-range explicit levels.
func TestBuildTiersPlanned(t *testing.T) {
	g := seeded(t, "random", 200, 34, gen.WeightsDistinct)
	tw := tower(t, g, 0, 0)
	coarsest := tw.TotalPhases - 1

	tiers, err := hier.BuildTiers(tw, hier.HierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 1 || tiers[0].Level != coarsest {
		t.Fatalf("no budget: got %d tiers at level %d, want 1 at coarsest %d", len(tiers), tiers[0].Level, coarsest)
	}

	budget := hier.EstimateBits(tw, 1)
	tiers, err = hier.BuildTiers(tw, hier.HierOptions{BudgetBits: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 1 || tiers[0].Level != hier.PlanLevel(tw, budget) {
		t.Fatalf("budget %d: got level %d, want the planner's %d", budget, tiers[0].Level, hier.PlanLevel(tw, budget))
	}

	tiers, err = hier.BuildTiers(tw, hier.HierOptions{Levels: []int{0, 99, 99}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 2 || tiers[0].Level != 1 || tiers[1].Level != coarsest {
		t.Fatalf("clamping: got %+v levels, want [1 %d]", tierLevels(tiers), coarsest)
	}
}

func tierLevels(tiers []store.Tier) []int {
	ls := make([]int, len(tiers))
	for i := range tiers {
		ls[i] = tiers[i].Level
	}
	return ls
}

// TestBuildTiersAllocations bounds one planned tier build, pass 1 of
// the decomposition included: a seeded random graph with n = 10⁵, one
// worker and no levels given, so the planner picks the level. Scanning
// the graph's edges through the level's partition, with pass 1
// comparing one 8-byte order word per edge and compacting its live list
// in place, allocates 12.4 MiB on a 2-core host, the same under the
// race detector, so one bound serves the CI race step too. A 24-byte
// GlobalKey per edge and a double-buffered live list allocated
// 19.2 MiB, and either alone fails; rooting the tree in pass 1 as well,
// which the tower never reads, 24.6 MiB, and keeping a copy of every
// level's edge list in the tower 56.4 MiB. The bound is the measurement
// plus 10%.
func TestBuildTiersAllocations(t *testing.T) {
	g := seeded(t, "random", 100_000, 7, gen.WeightsDistinct)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tiers, err := hier.BuildTiers(tower(t, g, 0, 1), hier.HierOptions{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 1 {
		t.Fatalf("%d tiers, want the one planned level", len(tiers))
	}
	const limit = 1.1 * 12.4 * (1 << 20)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("tier build at level %d allocated %.1f MiB", tiers[0].Level, got/(1<<20))
	if got > limit {
		t.Fatalf("tier build allocated %.1f MiB, limit %.1f MiB", got/(1<<20), limit/(1<<20))
	}
}
