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
	FragOf      [][]int32 // FragOf of every phase, 1..TotalPhases+1
	Visits      [][]StreamVisit
}

// project decomposes g under opt and projects the run over every phase
// whose selections opt keeps, and the spanning fragment when it keeps
// them all.
func project(t *testing.T, g *graph.Graph, root graph.NodeID, opt Options) observable {
	t.Helper()
	d, err := DecomposeOpt(g, root, opt)
	if err != nil {
		t.Fatal(err)
	}
	last := d.TotalPhases + 1
	if opt.KeepPhases > 0 {
		last = min(last, opt.KeepPhases)
	}
	parts, err := collect(d, 1, last)
	if err != nil {
		t.Fatal(err)
	}
	var frags [][]int32
	for phase := 1; phase <= d.TotalPhases+1; phase++ {
		frags = append(frags, d.FragOf(phase))
	}
	return observable{d.Root, d.TotalPhases, d.TreeEdges, d.ParentPort, d.ParentEdge, d.SelPhase, frags, parts}
}

// TestDecomposeParallelDeterminism asserts the phase kernel's central
// contract: for every registered graph family and every worker count in
// {1,2,3,4,8,16}, DecomposeOpt and Run produce a byte-identical
// Decomposition, contraction tower and visit stream, with and without
// dropping later phases' selections, and the whole wall holds again
// under GOMAXPROCS=1, which forces every goroutine onto one OS thread
// and so exercises completely different interleavings. Worker counts
// above GOMAXPROCS are included deliberately — the contract is about
// the partition into ranges and the merge semigroup, not the physical
// core count.
func TestDecomposeParallelDeterminism(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"full", Options{}},
		{"keepPhases", Options{KeepPhases: 3}},
	}
	check := func(t *testing.T) {
		for gi, fam := range gen.Names() {
			g := seeded(t, fam, 60, uint64(int64(100+gi)), gen.WeightsRandom)
			for _, va := range variants {
				opt := va.opt
				opt.Workers = 1
				want := project(t, g, 0, opt)
				for _, workers := range []int{2, 3, 4, 8, 16} {
					opt.Workers = workers
					if got := project(t, g, 0, opt); !reflect.DeepEqual(got, want) {
						t.Fatalf("family %s %s: decomposition differs at workers=%d", fam, va.name, workers)
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

// windows returns the phase windows TestRunMatchesReference streams
// from a run of total phases: (1,1), (k,k) for every phase k up to the
// spanning fragment at total+1, (1,total), (2,total+1), (total+1,total+1)
// and (1,total+1). On a single node (total = 0) two of them are empty.
func windows(total int) [][2]int {
	ws := [][2]int{{1, 1}}
	for k := 1; k <= total+1; k++ {
		ws = append(ws, [2]int{k, k})
	}
	return append(ws, [2]int{1, total}, [2]int{2, total + 1}, [2]int{total + 1, total + 1}, [2]int{1, total + 1})
}

// checkWindow holds the visits of d.Run(first, last) to reference.Boruvka
// (want, one entry per phase and the spanning fragment last): a window
// that is empty or outside [1, TotalPhases+1] must fail before any
// visit, and any other must visit exactly the reference's fragments of
// phases first..min(last, TotalPhases+1) — phase, members, active flag,
// selection, root, level and BFS order — and nothing else.
func checkWindow(d *Decomposition, want [][]reference.Fragment, first, last int) error {
	parts, err := collect(d, first, last)
	end := min(last, len(want))
	if first < 1 || first > end {
		if err == nil || len(parts) != 0 {
			return fmt.Errorf("window [%d, %d]: %d partitions streamed and error %v, want an error and none", first, last, len(parts), err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("window [%d, %d]: %v", first, last, err)
	}
	if len(parts) != end {
		return fmt.Errorf("window [%d, %d]: last partition streamed is phase %d, want %d", first, last, len(parts), end)
	}
	for j, part := range parts {
		if j+1 < first {
			if len(part) != 0 {
				return fmt.Errorf("window [%d, %d]: phase %d streamed", first, last, j+1)
			}
			continue
		}
		if len(part) != len(want[j]) {
			return fmt.Errorf("window [%d, %d]: phase %d has %d fragments, want %d", first, last, j+1, len(part), len(want[j]))
		}
		if n := d.NumFrags(j + 1); n != len(want[j]) {
			return fmt.Errorf("phase %d: NumFrags %d, want %d", j+1, n, len(want[j]))
		}
		for fi, v := range part {
			r := want[j][fi]
			if v.Active != r.Active || v.Root != r.Root || v.Level != r.Level ||
				!slices.Equal(v.BFS, r.BFS) || !slices.Equal(slices.Sorted(slices.Values(v.BFS)), r.Nodes) {
				return fmt.Errorf("window [%d, %d]: phase %d fragment %d: visit %+v, reference %+v", first, last, j+1, fi, v, r)
			}
			wantSel := Selection{Chooser: r.Chooser, Edge: r.Edge, Up: r.Up}
			if v.HasSel != r.HasSel || v.HasSel && v.Sel != wantSel {
				return fmt.Errorf("window [%d, %d]: phase %d fragment %d: selection %v %+v, reference %v %+v", first, last, j+1, fi, v.HasSel, v.Sel, r.HasSel, wantSel)
			}
			if v.HasSel && int(d.SelPhase[v.Sel.Edge]) != j+1 {
				return fmt.Errorf("edge %d selected at phase %d, SelPhase %d", v.Sel.Edge, j+1, d.SelPhase[v.Sel.Edge])
			}
		}
	}
	return nil
}

// TestRunMatchesReference holds every Run visit to reference.Boruvka, a
// naive phase simulation that shares no code with this package: on
// every family at n ∈ {1, 2, 3, 7, 16, 33, 64} in all three weight
// modes, at 1, 3 and 8 workers, for every window of windows(), each
// streamed fragment's phase, members, active flag, selection, root,
// level and BFS order (see checkWindow). One decomposition serves every
// window, so a later Run reuses the first one's rooting; a window
// starting past phase 2 holds Run's rebuilding of the partitions it
// skips. The tree, its rooting and each tree edge's selection phase are
// held to the reference too.
func TestRunMatchesReference(t *testing.T) {
	for gi, g := range testGraphs(t) {
		n := g.N()
		root := graph.NodeID(gi % n)
		want := reference.Boruvka(g, root)
		total := len(want) - 1
		parents := reference.Parents(g, root)
		for _, workers := range []int{1, 3, 8} {
			d, err := DecomposeOpt(g, root, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("graph %d (n=%d) workers=%d", gi, n, workers)
			for _, w := range windows(total) {
				if err := checkWindow(d, want, w[0], w[1]); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
			if d.TotalPhases != total || !slices.Equal(d.TreeEdges, reference.Kruskal(g)) || !slices.Equal(d.ParentPort, parents) {
				t.Fatalf("%s: phases, tree or rooting differ from the reference", where)
			}
		}
	}
}

// TestStreamPhaseResidency bounds what each kept phase costs Run. At
// n = 10⁵ on one worker, DecomposeOpt keeping 6 phases' selections and
// Run(1, 6) (as many phases as the Theorem 3 oracle reads at n = 10⁶)
// may allocate at most 2 MiB more than keeping 2 and Run(1, 2). Pass 1
// keeps only fragment-indexed data per phase and Run rebuilds every
// partition in buffers it allocates once, so the difference is
// 0.12 MiB on a 2-core host; recording each phase's node-level
// partition with its sort keys, and giving each its own arenas, cost
// 11.9 MiB.
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
		if err := d.Run(1, keep, func(int, StreamVisit) error { return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d.TotalPhases < keep {
			t.Fatalf("the run has %d phases, fewer than the %d kept", d.TotalPhases, keep)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	two, six := alloc(2), alloc(6)
	t.Logf("keeping and streaming 2 phases allocates %.2f MiB, 6 phases %.2f MiB", two, six)
	if six-two > 2 {
		t.Fatalf("6 phases allocate %.2f MiB more than 2, limit 2 MiB", six-two)
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

// TestDecomposeKeepPhases pins what KeepPhases retains. For every
// budget, a window within the kept phases streams the full run's
// visits; a window that reaches a phase past them, up to TotalPhases,
// fails before any visit and before rooting the tree; the spanning
// fragment, which has no selection, streams whatever the budget; and
// the contraction tower (FragOf, NumFrags) and every whole-run output
// are those of the full run, even at KeepPhases 1.
func TestDecomposeKeepPhases(t *testing.T) {
	g := seeded(t, "random", 120, 7, gen.WeightsDistinct)
	full, fullParts := decompose(t, g, 3)
	total := full.TotalPhases
	if total < 3 {
		t.Fatalf("the run has %d phases; the test needs 3", total)
	}
	for keep := 1; keep <= total+1; keep++ {
		d, err := DecomposeOpt(g, 3, Options{KeepPhases: keep})
		if err != nil {
			t.Fatal(err)
		}
		if keep < total {
			for _, w := range [][2]int{{1, keep + 1}, {keep + 1, keep + 1}, {keep + 1, total + 1}} {
				parts, err := collect(d, w[0], w[1])
				if err == nil || len(parts) != 0 || d.ParentPort != nil {
					t.Fatalf("keep=%d: window %v streamed %d partitions (error %v, rooted %v), want an error before rooting", keep, w, len(parts), err, d.ParentPort != nil)
				}
			}
		}
		for phase := 1; phase <= total+1; phase++ {
			if !slices.Equal(d.FragOf(phase), full.FragOf(phase)) || d.NumFrags(phase) != full.NumFrags(phase) {
				t.Fatalf("keep=%d: the tower at phase %d differs from the full run's", keep, phase)
			}
		}
		for _, w := range [][2]int{{1, min(keep, total)}, {total + 1, total + 1}} {
			parts, err := collect(d, w[0], w[1])
			if err != nil {
				t.Fatalf("keep=%d: window %v: %v", keep, w, err)
			}
			for j := w[0] - 1; j < w[1]; j++ {
				if !reflect.DeepEqual(parts[j], fullParts[j]) {
					t.Fatalf("keep=%d: phase %d differs from the full run's", keep, j+1)
				}
			}
		}
		if !reflect.DeepEqual(d.TreeEdges, full.TreeEdges) ||
			!reflect.DeepEqual(d.ParentPort, full.ParentPort) ||
			!reflect.DeepEqual(d.SelPhase, full.SelPhase) || d.TotalPhases != total {
			t.Fatalf("keep=%d: whole-run outputs differ", keep)
		}
	}
}
