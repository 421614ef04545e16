package boruvka

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
)

// observable projects the deterministic, exported state of a
// decomposition and its Run visits (the scratch buffers legitimately
// differ with worker scheduling; everything observable must not).
type observable struct {
	Root        graph.NodeID
	TotalPhases int
	TreeEdges   []graph.EdgeID
	ParentPort  []int
	ParentEdge  []graph.EdgeID
	SelPhase    []uint8
	Visits      [][]StreamVisit
}

// project decomposes g under opt and projects the run.
func project(t *testing.T, g *graph.Graph, root graph.NodeID, opt Options) (observable, *Decomposition) {
	t.Helper()
	d, parts := runAll(t, g, root, opt)
	return observable{d.Root, d.TotalPhases, d.TreeEdges, d.ParentPort, d.ParentEdge, d.SelPhase, parts}, d
}

// TestDecomposeParallelDeterminism asserts the phase kernel's central
// contract: for every registered graph family and every worker count in
// {1,2,3,4,8,16}, DecomposeOpt and Run produce a byte-identical
// Decomposition and visit stream — with and without phase truncation
// and the contraction tower — and the whole wall holds again under
// GOMAXPROCS=1, which forces every goroutine onto one OS thread and so
// exercises completely different interleavings. Worker counts above
// GOMAXPROCS are included deliberately — the contract is about the
// partition into ranges and the merge semigroup, not the physical core
// count.
func TestDecomposeParallelDeterminism(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"full", Options{}},
		{"keepPhases", Options{KeepPhases: 3}},
		{"keepTower", Options{KeepTower: true}},
	}
	check := func(t *testing.T) {
		for gi, fam := range gen.Names() {
			g := seeded(t, fam, 60, uint64(int64(100+gi)), gen.WeightsRandom)
			for _, va := range variants {
				opt := va.opt
				opt.Workers = 1
				want, ref := project(t, g, 0, opt)
				for _, workers := range []int{2, 3, 4, 8, 16} {
					opt.Workers = workers
					got, d := project(t, g, 0, opt)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("family %s %s: decomposition differs at workers=%d", fam, va.name, workers)
					}
					if va.opt.KeepTower && !reflect.DeepEqual(d.Tower, ref.Tower) {
						t.Fatalf("family %s: tower differs at workers=%d", fam, workers)
					}
				}
			}
		}
	}
	check(t)
	t.Run("gomaxprocs1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t)
	})
}

// TestRunMatchesReference holds every Run visit to reference.Boruvka, a
// naive phase simulation that shares no code with this package: on
// every family at n ∈ {1, 2, 3, 7, 16, 33, 64} in all three weight
// modes, each streamed fragment's phase, members, active flag,
// selection, root, level and BFS order, and the Final flags, for a
// retention budget of 0, 1, 2, TotalPhases and TotalPhases+1 phases
// (the last two stream the final phase and the synthesized spanning
// fragment), at 1, 3 and 8 workers. The tree, its rooting and each
// tree edge's selection phase are held to the reference too.
func TestRunMatchesReference(t *testing.T) {
	for gi, g := range testGraphs(t) {
		n := g.N()
		root := graph.NodeID(gi % n)
		want := reference.Boruvka(g, root)
		total := len(want) - 1
		parents := reference.Parents(g, root)
		for _, keep := range []int{0, 1, 2, total, total + 1} {
			for _, workers := range []int{1, 3, 8} {
				d, parts := runAll(t, g, root, Options{Workers: workers, KeepPhases: keep})
				where := fmt.Sprintf("graph %d (n=%d) keep=%d workers=%d", gi, n, keep, workers)
				if d.TotalPhases != total || !slices.Equal(d.TreeEdges, reference.Kruskal(g)) || !slices.Equal(d.ParentPort, parents) {
					t.Fatalf("%s: phases, tree or rooting differ from the reference", where)
				}
				// The kept phases, then the spanning fragment when the run
				// ends inside the budget.
				streamed := len(want)
				if keep > 0 && keep <= total {
					streamed = keep
				}
				if len(parts) != streamed {
					t.Fatalf("%s: %d partitions streamed, want %d", where, len(parts), streamed)
				}
				for j, part := range parts {
					if len(part) != len(want[j]) {
						t.Fatalf("%s: phase %d has %d fragments, want %d", where, j+1, len(part), len(want[j]))
					}
					for fi, v := range part {
						r := want[j][fi]
						// Phase keep is the final stage, and so is the
						// spanning fragment (j = total) whenever it is streamed.
						final := j+1 == keep || j == total
						if v.Final != final || v.Active != r.Active || v.Root != r.Root || v.Level != r.Level ||
							!slices.Equal(v.BFS, r.BFS) || !slices.Equal(slices.Sorted(slices.Values(v.BFS)), r.Nodes) {
							t.Fatalf("%s: phase %d fragment %d: visit %+v, reference %+v", where, j+1, fi, v, r)
						}
						wantSel := Selection{Chooser: r.Chooser, Edge: r.Edge, Up: r.Up}
						if v.HasSel != r.HasSel || v.HasSel && v.Sel != wantSel {
							t.Fatalf("%s: phase %d fragment %d: selection %v %+v, reference %v %+v", where, j+1, fi, v.HasSel, v.Sel, r.HasSel, wantSel)
						}
						if v.HasSel && int(d.SelPhase[v.Sel.Edge]) != j+1 {
							t.Fatalf("%s: edge %d selected at phase %d, SelPhase %d", where, v.Sel.Edge, j+1, d.SelPhase[v.Sel.Edge])
						}
					}
				}
				if d.FinalFrags() != len(want[streamed-1]) {
					t.Fatalf("%s: FinalFrags %d, want %d", where, d.FinalFrags(), len(want[streamed-1]))
				}
			}
		}
	}
}

// TestStreamPhaseResidency bounds what each kept phase costs Run. At
// n = 10⁵ on one worker, DecomposeOpt + Run keeping 6 phases (as many
// as the Theorem 3 oracle keeps at n = 10⁶) may allocate at most 2 MiB
// more than keeping 2. Pass 1 records only fragment-indexed data per
// kept phase and Run rebuilds every partition in buffers it allocates
// once, so the difference is 0.31 MiB on a 2-core host; recording each
// phase's node-level partition with its sort keys, and giving each its
// own arenas, cost 11.9 MiB.
func TestStreamPhaseResidency(t *testing.T) {
	g := seeded(t, "random", 100_000, 7, gen.WeightsDistinct)
	alloc := func(keep int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d, err := DecomposeOpt(g, 0, Options{Workers: 1, KeepPhases: keep})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(func(int, StreamVisit) error { return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d.TotalPhases < keep {
			t.Fatalf("the run has %d phases, fewer than the %d kept", d.TotalPhases, keep)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	two, six := alloc(2), alloc(6)
	t.Logf("keeping 2 phases allocates %.2f MiB, keeping 6 allocates %.2f MiB", two, six)
	if six-two > 2 {
		t.Fatalf("keeping 6 phases allocates %.2f MiB more than keeping 2, limit 2 MiB", six-two)
	}
}

// TestCompactLiveMatchesFilter holds the in-place compaction to a
// naive filter that relabels every edge and keeps the inter-fragment
// ones, in order. Lengths sit at, below and above multiples of the
// chunk; each chunk keeps its edges at its own rate (none, all, or a
// random share), so whole chunks vanish or stay between moving ones,
// and with three chunks or more a chunk's target overlaps the
// survivors of the chunk before it; the rows that map every fragment
// to one keep nothing. Every length runs three draws. Worker counts
// above GOMAXPROCS are deliberate, as in the determinism test.
func TestCompactLiveMatchesFilter(t *testing.T) {
	const frags = 64 // fragments f and f^1 merge, unless all merge
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 5, liveChunk - 1, liveChunk, liveChunk + 1, 2*liveChunk - 1, 2 * liveChunk, 2*liveChunk + 1, 3*liveChunk + 100, 5*liveChunk - 1, 5 * liveChunk} {
		for _, allMerge := range []bool{false, false, false, true} {
			oldToNew := make([]int32, frags)
			for f := range oldToNew {
				if !allMerge {
					oldToNew[f] = int32(f / 2)
				}
			}
			in := make([]liveEdge, n)
			keep := 0.0
			for i := range in {
				if i%liveChunk == 0 {
					keep = []float64{0, 1, rng.Float64()}[rng.Intn(3)]
				}
				u := rng.Intn(frags)
				v := u ^ 1 // inside u's new fragment
				if rng.Float64() < keep {
					v = 2*((u/2+1+rng.Intn(frags/2-1))%(frags/2)) + rng.Intn(2)
				}
				in[i] = liveEdge{int32(i), int32(u), int32(v)}
			}
			var want []liveEdge
			for _, le := range in {
				if nu, nv := oldToNew[le.u], oldToNew[le.v]; nu != nv {
					want = append(want, liveEdge{le.e, nu, nv})
				}
			}
			if allMerge && len(want) != 0 {
				t.Fatalf("n=%d: merging every fragment keeps %d edges", n, len(want))
			}
			for _, workers := range []int{1, 2, 8} {
				live := slices.Clone(in)
				got := compactLive(live, oldToNew, workers)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d allMerge=%v, %d workers: %d survivors differ from the filter's %d", n, allMerge, workers, len(got), len(want))
				}
				if len(got) > 0 && &got[0] != &live[0] {
					t.Fatalf("n=%d allMerge=%v, %d workers: the survivors are not a prefix of the list", n, allMerge, workers)
				}
			}
		}
	}
}

// TestDecomposeKeepPhases asserts that KeepPhases streams exactly a
// prefix of the full run's partitions, flagging the last kept one
// Final, and leaves every whole-run output untouched.
func TestDecomposeKeepPhases(t *testing.T) {
	g := seeded(t, "random", 120, 7, gen.WeightsDistinct)
	full, fullParts := decompose(t, g, 3)
	for keep := 1; keep <= full.TotalPhases+1; keep++ {
		d, parts := runAll(t, g, 3, Options{KeepPhases: keep})
		wantLen := min(keep, full.TotalPhases+1)
		if len(parts) != wantLen {
			t.Fatalf("keep=%d: %d partitions streamed, want %d", keep, len(parts), wantLen)
		}
		if d.TotalPhases != full.TotalPhases {
			t.Fatalf("keep=%d: TotalPhases %d, want %d", keep, d.TotalPhases, full.TotalPhases)
		}
		for j, part := range parts {
			for fi, v := range part {
				w := fullParts[j][fi]
				w.Final = j+1 == keep || j == full.TotalPhases
				if !reflect.DeepEqual(v, w) {
					t.Fatalf("keep=%d: phase %d fragment %d differs from the full run's", keep, j+1, fi)
				}
			}
		}
		if !reflect.DeepEqual(d.TreeEdges, full.TreeEdges) ||
			!reflect.DeepEqual(d.ParentPort, full.ParentPort) ||
			!reflect.DeepEqual(d.SelPhase, full.SelPhase) {
			t.Fatalf("keep=%d: whole-run outputs differ", keep)
		}
	}
}
