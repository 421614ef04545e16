package hier_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
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
	tiers, err := hier.BuildTiers(tower(t, g, root, 0), []int{1, 2, 3, 4, 5, 6, 7, 8}, 0)
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

// TestBuildTiersMatchesReference holds every tier to the naive
// contraction of internal/reference (a map keyed by fragment pair, and
// comparison sorts by edge ID and by the intrinsic order) over
// reference.Boruvka's fragments: coarse edge records, identifiers,
// root and original-edge hints. It covers every family and weight mode
// at n ∈ {2, 3, 17, 300}, every tower level, and 1 and 3 workers. Each
// graph also runs as a copy whose identifiers are shifted beyond int32,
// where the global order's comparison fallback ranks the coarse edges.
func TestBuildTiersMatchesReference(t *testing.T) {
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{2, 3, 17, 300} {
				g := seeded(t, fam, n, uint64(n)+uint64(mode)*7, mode)
				ids := slices.Clone(g.IDs())
				for u := range ids {
					ids[u] += 1 << 40
				}
				wide, err := graph.FromEdgeList(g.N(), ids, slices.Clone(g.Edges()), 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range []*graph.Graph{g, wide} {
					root := graph.NodeID(g.N() / 3)
					phases := reference.Boruvka(g, root)
					var levels []int
					for l := 1; l < len(phases)-1; l++ {
						levels = append(levels, l)
					}
					for _, workers := range []int{1, 3} {
						name := fmt.Sprintf("%s/%v/n=%d/id0=%d/workers=%d", fam, mode, n, g.ID(0), workers)
						tiers, err := hier.BuildTiers(tower(t, g, root, workers), levels, 0)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got := tierLevels(tiers); !slices.Equal(got, levels) {
							t.Fatalf("%s: tier levels %v, want every tower level %v", name, got, levels)
						}
						for _, tier := range tiers {
							cg, croot, orig := reference.Contract(g, phases[tier.Level], root)
							switch {
							case !slices.Equal(tier.Graph.Edges(), cg.Edges()):
								t.Fatalf("%s level %d: coarse edges\n got  %v\n want %v", name, tier.Level, tier.Graph.Edges(), cg.Edges())
							case !slices.Equal(tier.Graph.IDs(), cg.IDs()):
								t.Fatalf("%s level %d: coarse IDs %v, want %v", name, tier.Level, tier.Graph.IDs(), cg.IDs())
							case tier.Root != croot:
								t.Fatalf("%s level %d: coarse root %d, want %d", name, tier.Level, tier.Root, croot)
							case !slices.Equal(tier.OrigEdge, orig):
								t.Fatalf("%s level %d: original edges %v, want %v", name, tier.Level, tier.OrigEdge, orig)
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildTiersSnapshotRoundTrip pins the join between the tier
// builder and the version-3 codec: real tiers survive Encode/Decode.
func TestBuildTiersSnapshotRoundTrip(t *testing.T) {
	g := seeded(t, "random", 120, 32, gen.WeightsDistinct)
	tiers, err := hier.BuildTiers(tower(t, g, 0, 0), []int{1, 2}, 0)
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
	ref, err := hier.BuildTiers(tower(t, g, 3, 1), []int{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := hier.BuildTiers(tower(t, g, 3, workers), []int{1, 2, 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: tiers differ from sequential build", workers)
		}
	}
}

// TestBuildTiersPlanned pins the level list: out-of-range levels clamp
// to the tower and duplicates collapse, and an empty list builds no
// tier.
func TestBuildTiersPlanned(t *testing.T) {
	g := seeded(t, "random", 200, 34, gen.WeightsDistinct)
	tw := tower(t, g, 0, 0)
	coarsest := tw.TotalPhases - 1

	tiers, err := hier.BuildTiers(tw, []int{0, 99, 99}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 2 || tiers[0].Level != 1 || tiers[1].Level != coarsest {
		t.Fatalf("clamping: got %+v levels, want [1 %d]", tierLevels(tiers), coarsest)
	}

	for _, levels := range [][]int{nil, {}} {
		if tiers, err := hier.BuildTiers(tw, levels, 0); err != nil || len(tiers) != 0 {
			t.Fatalf("levels %v: %d tiers (%v), want none", levels, len(tiers), err)
		}
	}
}

func tierLevels(tiers []store.Tier) []int {
	ls := make([]int, len(tiers))
	for i := range tiers {
		ls[i] = tiers[i].Level
	}
	return ls
}

// TestBuildTiersAllocations bounds one tier build at a named level, pass
// 1 of the decomposition included: a seeded random graph with
// n = 10⁵ and one worker. The measurements on a 2-core host are the same
// under the race detector, so one bound serves the CI race step too.
//   - The coarsest level allocates 12.6 MiB, where the 99,669 edges
//     between its two fragments collapse to one; the bound, 13.6 MiB,
//     dates from 12.4 MiB measured when a map did the collapse. Pass 1
//     compares one 8-byte order word per edge and compacts its live
//     list in place. A 24-byte GlobalKey per edge and a double-buffered
//     live list allocated 19.2 MiB; rooting the tree in pass 1 as well,
//     which the tower never reads, 24.6 MiB; and sorting every crossing
//     edge before the collapse 15.7 MiB.
//   - Level 1 allocates 33.7 MiB, and the bound is that plus 10%.
//     Collapsing through a map keyed by fragment pair and sorting by
//     edge ID and by Graph.Key allocated 71.5 MiB.
func TestBuildTiersAllocations(t *testing.T) {
	g := seeded(t, "random", 100_000, 7, gen.WeightsDistinct)
	for _, c := range []struct {
		name  string
		level int
		limit float64
	}{
		{"coarsest", 1 << 20, 1.1 * 12.4}, // 1 << 20 clamps to the coarsest level
		{"level 1", 1, 1.1 * 33.7},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tiers, err := hier.BuildTiers(tower(t, g, 0, 1), []int{c.level}, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(tiers) != 1 {
			t.Fatalf("%s: %d tiers, want one", c.name, len(tiers))
		}
		got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s: tier build at level %d allocated %.2f MiB", c.name, tiers[0].Level, got)
		if got > c.limit {
			t.Errorf("%s: tier build allocated %.2f MiB, limit %.2f MiB", c.name, got, c.limit)
		}
	}
}
