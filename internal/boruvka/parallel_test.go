package boruvka

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
)

// observable projects the deterministic, exported state of a
// decomposition (the scratch buffers legitimately differ with worker
// scheduling; everything observable must not).
type observable struct {
	Root        graph.NodeID
	Phases      []Phase
	TotalPhases int
	Final       Fragment
	TreeEdges   []graph.EdgeID
	ParentPort  []int
	ParentEdge  []graph.EdgeID
	SelPhase    []uint8
}

func project(d *Decomposition) observable {
	return observable{d.Root, d.Phases, d.TotalPhases, d.Final,
		d.TreeEdges, d.ParentPort, d.ParentEdge, d.SelPhase}
}

// TestDecomposeParallelDeterminism asserts the phase kernel's central
// contract: for every registered graph family and every worker count in
// {1,2,3,4,8,16}, DecomposeOpt produces a byte-identical Decomposition —
// with and without phase truncation and the contraction tower — and the
// whole wall holds again under GOMAXPROCS=1, which forces every
// goroutine onto one OS thread and so exercises completely different
// interleavings. Worker counts above GOMAXPROCS are included
// deliberately — the contract is about the partition into ranges and
// the merge semigroup, not the physical core count.
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
				ref, err := DecomposeOpt(g, 0, opt)
				if err != nil {
					t.Fatalf("family %s %s workers=1: %v", fam, va.name, err)
				}
				want := project(ref)
				for _, workers := range []int{2, 3, 4, 8, 16} {
					opt.Workers = workers
					d, err := DecomposeOpt(g, 0, opt)
					if err != nil {
						t.Fatalf("family %s %s workers=%d: %v", fam, va.name, workers, err)
					}
					if !reflect.DeepEqual(project(d), want) {
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

// streamRecord is one StreamVisit flattened for comparison (BFS copied
// out of its arena).
type streamRecord struct {
	Phase, Frag   int
	Final, Active bool
	Root          graph.NodeID
	Level         int
	BFS           []graph.NodeID
	HasSel        bool
	Sel           Selection
}

// collectStream runs NewStream and Stream.Run, as the fused encoder
// does, and returns the visits sorted by (phase, fragment) — the visit
// order within a phase is intentionally unspecified — plus the flat
// decomposition.
func collectStream(t *testing.T, g *graph.Graph, opt Options) ([]streamRecord, *Decomposition) {
	t.Helper()
	var mu sync.Mutex
	var recs []streamRecord
	s, err := NewStream(g, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(func(_ int, v StreamVisit) error {
		r := streamRecord{v.Phase, v.Frag, v.Final, v.Active, v.Root, v.Level,
			append([]graph.NodeID(nil), v.BFS...), v.HasSel, v.Sel}
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Phase != recs[j].Phase {
			return recs[i].Phase < recs[j].Phase
		}
		return recs[i].Frag < recs[j].Frag
	})
	return recs, s.D
}

// TestDecomposeStreamMatchesRich replays the streamed fragments against
// the rich two-pass records: every phase, fragment, annotation and
// selection must agree, for a retention budget the run outlives and for
// one it does not (where the stream must synthesize the spanning
// fragment), across worker counts.
func TestDecomposeStreamMatchesRich(t *testing.T) {
	g := seeded(t, "random", 180, 42, gen.WeightsDistinct)
	full, err := Decompose(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 2, full.TotalPhases, full.TotalPhases + 1, full.TotalPhases + 5} {
		for _, workers := range []int{1, 3, 8} {
			recs, d := collectStream(t, g, Options{Workers: workers, KeepPhases: keep})
			if d.TotalPhases != full.TotalPhases || d.NumPhases() != 0 {
				t.Fatalf("keep=%d: stream decomposition records phases (%d) or wrong total", keep, d.NumPhases())
			}
			kept := keep
			if kept <= 0 || kept > full.TotalPhases {
				kept = full.TotalPhases
			}
			wantSynth := keep <= 0 || full.TotalPhases < keep
			ri := 0
			for pi := 1; pi <= kept; pi++ {
				ph := &full.Phases[pi-1]
				for fi := range ph.Fragments {
					f := &ph.Fragments[fi]
					if ri >= len(recs) {
						t.Fatalf("keep=%d workers=%d: stream ended before phase %d fragment %d", keep, workers, pi, fi)
					}
					r := recs[ri]
					ri++
					wantFinal := keep > 0 && pi == keep
					if r.Phase != pi || r.Frag != fi || r.Final != wantFinal || r.Active != f.Active ||
						r.Root != f.Root || r.Level != f.Level || !reflect.DeepEqual(r.BFS, f.BFS) {
						t.Fatalf("keep=%d workers=%d: phase %d fragment %d visit %+v mismatches rich record", keep, workers, pi, fi, r)
					}
					if r.HasSel != (f.Sel != nil) || (r.HasSel && r.Sel != *f.Sel) {
						t.Fatalf("keep=%d workers=%d: phase %d fragment %d selection mismatch", keep, workers, pi, fi)
					}
				}
			}
			if wantSynth {
				if ri+1 != len(recs) {
					t.Fatalf("keep=%d workers=%d: %d trailing visits, want 1 synthesized final", keep, workers, len(recs)-ri)
				}
				r := recs[ri]
				if r.Phase != full.TotalPhases+1 || !r.Final || r.HasSel ||
					r.Root != full.Final.Root || r.Level != full.Final.Level ||
					!reflect.DeepEqual(r.BFS, full.Final.BFS) {
					t.Fatalf("keep=%d workers=%d: synthesized final visit %+v mismatches rich Final", keep, workers, r)
				}
			} else if ri != len(recs) {
				t.Fatalf("keep=%d workers=%d: %d unexpected trailing visits", keep, workers, len(recs)-ri)
			}
		}
	}
}

// TestStreamPhaseResidency bounds what each kept phase costs the
// streaming pass. At n = 10⁵ on one worker, NewStream + Run keeping 6
// phases (as many as the Theorem 3 oracle keeps at n = 10⁶) may
// allocate at most 2 MiB more than keeping 2. Pass 1 records only
// fragment-indexed data per kept phase and Run rebuilds every partition
// in buffers it allocates once, so the difference is 0.31 MiB on a
// 2-core host; recording each phase's node-level partition with its
// sort keys, and giving each its own arenas, cost 11.9 MiB.
func TestStreamPhaseResidency(t *testing.T) {
	g := seeded(t, "random", 100_000, 7, gen.WeightsDistinct)
	alloc := func(keep int) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := NewStream(g, 0, Options{Workers: 1, KeepPhases: keep})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(func(int, StreamVisit) error { return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if s.D.TotalPhases < keep {
			t.Fatalf("the run has %d phases, fewer than the %d kept", s.D.TotalPhases, keep)
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

// TestDecomposeKeepPhases asserts that KeepPhases records exactly a
// prefix of the full phase list and leaves every whole-run output
// untouched.
func TestDecomposeKeepPhases(t *testing.T) {
	g := seeded(t, "random", 120, 7, gen.WeightsDistinct)
	full, err := Decompose(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for keep := 1; keep <= full.TotalPhases+1; keep++ {
		d, err := DecomposeOpt(g, 3, Options{KeepPhases: keep})
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		wantLen := keep
		if wantLen > full.TotalPhases {
			wantLen = full.TotalPhases
		}
		if d.NumPhases() != wantLen {
			t.Fatalf("keep=%d: NumPhases() = %d, want %d", keep, d.NumPhases(), wantLen)
		}
		if d.TotalPhases != full.TotalPhases {
			t.Fatalf("keep=%d: TotalPhases %d, want %d", keep, d.TotalPhases, full.TotalPhases)
		}
		if !reflect.DeepEqual(d.Phases, full.Phases[:d.NumPhases()]) {
			t.Fatalf("keep=%d: recorded phases differ from the full prefix", keep)
		}
		if !reflect.DeepEqual(d.TreeEdges, full.TreeEdges) ||
			!reflect.DeepEqual(d.ParentPort, full.ParentPort) ||
			!reflect.DeepEqual(d.Final, full.Final) ||
			!reflect.DeepEqual(d.SelPhase, full.SelPhase) {
			t.Fatalf("keep=%d: whole-run outputs differ", keep)
		}
	}
}

// TestFragmentsAtStartTruncated pins the truncation semantics: the final
// fragment is reachable through FragmentsAtStart only when the record is
// complete.
func TestFragmentsAtStartTruncated(t *testing.T) {
	g := seeded(t, "random", 64, 8, gen.WeightsDistinct)
	d, err := DecomposeOpt(g, 0, Options{KeepPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalPhases <= 2 {
		t.Skipf("graph merged in %d phases; need > 2 for the truncation case", d.TotalPhases)
	}
	if got := d.FragmentsAtStart(1); len(got) != g.N() {
		t.Fatalf("phase 1 has %d fragments, want %d singletons", len(got), g.N())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FragmentsAtStart past a truncated record should panic")
		}
	}()
	d.FragmentsAtStart(2)
}
