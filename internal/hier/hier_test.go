package hier_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/hier"
	"mstadvice/internal/problem"
	_ "mstadvice/internal/problem/mstp" // registers "mst" and routes mst-hier-l%d
	"mstadvice/internal/reference"
	"mstadvice/internal/sim"
)

// seeded builds the named seeded family, failing the test on an error.
func seeded(tb testing.TB, family string, n int, seed uint64, w gen.WeightMode) *graph.Graph {
	tb.Helper()
	g, err := gen.BuildSeeded(family, n, seed, gen.SeededOptions{Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// tower runs pass 1 of g's decomposition from root on workers, keeping
// one phase's selections, as a tier builder's caller does.
func tower(tb testing.TB, g *graph.Graph, root graph.NodeID, workers int) *boruvka.Decomposition {
	tb.Helper()
	d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{Workers: workers, KeepPhases: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestHierAllFamilies is the acceptance pin: the mst-hier-l%d decoder
// verifies on every registered graph family, at several levels, with
// the exact fixed round count: with distinct weights on the synchronous
// engine, and with tied and with equal weights, where the relays'
// (weight, port) order of the batches they forward rests on the port
// tie-break, at small n on both engines.
func TestHierAllFamilies(t *testing.T) {
	type row struct {
		w     gen.WeightMode
		n     int
		async bool
	}
	rows := []row{{gen.WeightsDistinct, 60, false}}
	for _, w := range []gen.WeightMode{gen.WeightsRandom, gen.WeightsUnit} {
		for _, n := range []int{3, 9, 60} {
			rows = append(rows, row{w, n, false}, row{w, n, true})
		}
	}
	for _, fam := range gen.Names() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			for _, r := range rows {
				g := seeded(t, fam, r.n, 21, r.w)
				for _, level := range []int{1, 2, 3, 8} {
					res, err := advice.Run(hier.Scheme{Level: level}, g, 0, sim.Options{Async: r.async})
					if err != nil {
						t.Fatalf("%+v level %d: %v", r, level, err)
					}
					if !res.Verified {
						t.Fatalf("%+v level %d: not verified: %v", r, level, res.VerifyErr)
					}
					if rounds := max(res.Rounds, res.Pulses); rounds != reference.HierRounds(g.N()) {
						t.Fatalf("%+v level %d: %d rounds, want the fixed %d", r, level, rounds, reference.HierRounds(g.N()))
					}
				}
			}
		})
	}
}

// TestHierAsyncParity runs the same decoder, unmodified, through the
// α-synchronizer on the asynchronous engine: it must still verify, and
// its simulated round count (pulses) must equal the synchronous one.
func TestHierAsyncParity(t *testing.T) {
	for _, fam := range gen.Names() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			g := seeded(t, fam, 40, 22, gen.WeightsDistinct)
			res, err := advice.Run(hier.Scheme{Level: 2}, g, 0, sim.Options{Async: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatalf("async: not verified: %v", res.VerifyErr)
			}
			if res.Pulses != reference.HierRounds(g.N()) {
				t.Fatalf("async: %d pulses, want %d", res.Pulses, reference.HierRounds(g.N()))
			}
		})
	}
}

// TestHierWorkerDeterminism pins the oracle's and engine's shared
// contract: byte-identical advice and identical run results for any
// worker count, sequential included.
func TestHierWorkerDeterminism(t *testing.T) {
	g := seeded(t, "random", 300, 23, gen.WeightsDistinct)
	s := hier.Scheme{Level: 3}
	ref, err := s.AdviseWorkers(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, err := s.AdviseWorkers(g, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		for u := range ref {
			if !ref[u].Equal(got[u]) {
				t.Fatalf("workers=%d: advice of node %d differs", workers, u)
			}
		}
	}
	var rounds []int
	for _, opt := range []sim.Options{{Workers: 1}, {Workers: 2}, {Workers: 7}} {
		res, err := advice.Run(s, g, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("opt %+v: not verified: %v", opt, res.VerifyErr)
		}
		rounds = append(rounds, res.Rounds)
	}
	for _, r := range rounds {
		if r != rounds[0] {
			t.Fatalf("round counts differ across worker counts: %v", rounds)
		}
	}
}

// TestHierSchemeRouting pins the parameterized-family routing through
// the problem registry: every well-formed name reconstructs the scheme,
// malformed ones fall through.
func TestHierSchemeRouting(t *testing.T) {
	p, s, ok := problem.BySchemeName("mst-hier-l4")
	if !ok {
		t.Fatal("mst-hier-l4 did not resolve")
	}
	if p.Name() != "mst" {
		t.Fatalf("resolved to problem %q, want mst", p.Name())
	}
	if hs, ok := s.(hier.Scheme); !ok || hs.Level != 4 {
		t.Fatalf("resolved scheme %#v, want hier.Scheme{Level: 4}", s)
	}
	for _, bad := range []string{"mst-hier-l0", "mst-hier-l-1", "mst-hier-lx", "mst-hier-l4x", "mst-hier-"} {
		if _, _, ok := problem.BySchemeName(bad); ok {
			t.Fatalf("%q resolved but should not", bad)
		}
	}
}

// TestHierBitsFall pins the point of the hierarchy: the per-node advice
// total falls as the level coarsens (the fragment-value cost is
// ⌈log n⌉ per fragment and Lemma 1 halves the fragment count per
// level), and the estimate used by the planner upper-bounds the truth.
func TestHierBitsFall(t *testing.T) {
	g := seeded(t, "random", 500, 24, gen.WeightsDistinct)
	d, err := boruvka.DecomposeOpt(g, 0, boruvka.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var levels []int
	for level := 1; level < d.TotalPhases; level++ {
		levels = append(levels, level)
	}
	advs, err := hier.Encode(d, levels)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for i, adv := range advs {
		level := levels[i]
		total := 0
		for _, b := range adv {
			total += b.Len()
		}
		if est := hier.EstimateBits(d, level); est < total {
			t.Fatalf("level %d: estimate %d below actual %d", level, est, total)
		}
		if prev >= 0 && total > prev {
			t.Fatalf("level %d: %d bits, more than level %d's %d", level, total, level-1, prev)
		}
		prev = total
	}
}

// TestEncodeSharedDecomposition holds Encode, which fills several levels
// from one Run of a decomposition that keeps every phase, to
// Scheme.AdviseWorkers, which decomposes anew and keeps only the level's
// phases, for every level 1..TotalPhases+1 (the last two clamp to the
// spanning fragment): on every family at n ∈ {2, 3, 16, 100}, in all
// three weight modes, at 1 and 3 workers.
func TestEncodeSharedDecomposition(t *testing.T) {
	seed := uint64(0)
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{2, 3, 16, 100} {
				seed++
				g := seeded(t, fam, n, seed, mode)
				root := graph.NodeID(n / 2)
				for _, workers := range []int{1, 3} {
					d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					var levels []int
					for l := 1; l <= d.TotalPhases+1; l++ {
						levels = append(levels, l)
					}
					advs, err := hier.Encode(d, levels)
					if err != nil {
						t.Fatalf("%s n=%d workers=%d: %v", fam, n, workers, err)
					}
					for k, l := range levels {
						want, err := hier.Scheme{Level: l}.AdviseWorkers(g, root, workers)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.EqualFunc(advs[k], want, (*bitstring.BitString).Equal) {
							t.Fatalf("%s n=%d workers=%d level %d: Encode differs from AdviseWorkers", fam, n, workers, l)
						}
					}
				}
			}
		}
	}
}

// TestPlanLevel pins the level-cut planner: finest affordable level,
// coarsest when nothing (or no budget) fits.
func TestPlanLevel(t *testing.T) {
	g := seeded(t, "random", 400, 25, gen.WeightsDistinct)
	tw := tower(t, g, 0, 0)
	last := tw.TotalPhases - 1
	if last < 2 {
		t.Skipf("tower has %d levels; need ≥ 2", last)
	}
	if got := hier.PlanLevel(tw, 0); got != last {
		t.Fatalf("PlanLevel(0) = %d, want coarsest %d", got, last)
	}
	if got := hier.PlanLevel(tw, 1); got != last {
		t.Fatalf("PlanLevel(1) = %d, want coarsest %d", got, last)
	}
	for l := 1; l <= last; l++ {
		budget := hier.EstimateBits(tw, l)
		got := hier.PlanLevel(tw, budget)
		if got > l {
			t.Fatalf("PlanLevel(%d) = %d, coarser than affordable level %d", budget, got, l)
		}
		if hier.EstimateBits(tw, got) > budget {
			t.Fatalf("PlanLevel(%d) = %d overshoots the budget", budget, got)
		}
	}
}

// TestHierExtremeIdentifiers: identifiers are any distinct int64s, so
// the decoder gives the exact MST at every level when one node, in turn
// at four places, has identifier −2⁶², math.MinInt64 or math.MaxInt64.
// A root whose collection is a whole fragment smaller than ⌈log n⌉
// reads its value at stride |F|, and the fragment is whole only if every
// record names its parent; on the complete graph a root's rank can
// reach 2^|F|, so a misnamed parent changes the decoded port. Records
// name their parent by identifier, filled in by their owner; when the
// first relay filled it in instead, −2⁶² was the in-band "not yet
// filled" marker, and a relay with that identifier misnamed its
// children's parent.
func TestHierExtremeIdentifiers(t *testing.T) {
	for _, fam := range []string{"random", "grid", "path", "tree", "expander", "complete"} {
		g := seeded(t, fam, 64, 11, gen.WeightsDistinct)
		for _, id := range []int64{-1 << 62, math.MinInt64, math.MaxInt64} {
			for k := range 4 {
				u := graph.NodeID(1 + k*(g.N()-1)/4)
				ids := slices.Clone(g.IDs())
				ids[u] = id
				h, err := graph.FromEdgeList(g.N(), ids, slices.Clone(g.Edges()), 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, level := range []int{1, 2, 3} {
					res, err := advice.Run(hier.Scheme{Level: level}, h, 0, sim.Options{})
					if err != nil {
						t.Fatalf("%s level %d, node %d has id %d: %v", fam, level, u, id, err)
					}
					if !res.Verified {
						t.Fatalf("%s level %d, node %d has id %d: %v", fam, level, u, id, res.VerifyErr)
					}
				}
			}
		}
	}
}

// TestHierTinyGraphs sweeps the degenerate sizes the schedule's edge
// cases live at.
func TestHierTinyGraphs(t *testing.T) {
	for n := 2; n <= 9; n++ {
		g := seeded(t, "path", n, uint64(26+n), gen.WeightsDistinct)
		res, err := advice.Run(hier.Scheme{Level: 1}, g, graph.NodeID(n/2), sim.Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Verified {
			t.Fatalf("n=%d: not verified: %v", n, res.VerifyErr)
		}
	}
}

// TestHierAdviceSelfDescribing pins the advice layout the decoder
// relies on: exactly one fragment-root flag per fragment of
// reference.Boruvka, hints that match the reference parent ports, and
// per-fragment carrier totals of exactly ⌈log n⌉ bits.
func TestHierAdviceSelfDescribing(t *testing.T) {
	g := seeded(t, "random", 200, 27, gen.WeightsDistinct)
	level := 2
	adv, err := (hier.Scheme{Level: level}).Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	width := graph.CeilLog2(g.N())
	parents := reference.Parents(g, 0)
	for fi, f := range reference.Boruvka(g, 0)[level] {
		carriers := 0
		for _, u := range f.Nodes {
			r := bitstring.NewReader(adv[u])
			isRoot := r.ReadBit()
			if isRoot != (u == f.Root) {
				t.Fatalf("node %d: root flag %v, want %v", u, isRoot, u == f.Root)
			}
			if !isRoot {
				hint := int(r.ReadUint(bitstring.WidthFor(uint64(g.Degree(u) - 1))))
				if hint != parents[u] {
					t.Fatalf("node %d: hint %d, want parent port %d", u, hint, parents[u])
				}
			}
			carriers += adv[u].Len() - r.Pos()
		}
		if carriers != width {
			t.Fatalf("fragment %d: %d carrier bits, want exactly %d", fi, carriers, width)
		}
	}
}

// TestHierDecoderAllocations bounds what one decode allocates: the
// decoder at the coarsest level of a seeded random graph with n = 2·10⁴
// must stay within 30 MiB of heap allocations (18.4 MiB measured on a
// 2-core host, 20.4 MiB under the race detector; 21.6 MiB and 23.5 MiB
// with a send buffer per node). A decoder whose relays
// forward whole subtrees and whose fragment roots rebuild them as trees
// allocated 58.7 MiB here, so it fails.
func TestHierDecoderAllocations(t *testing.T) {
	g := seeded(t, "random", 20_000, 5, gen.WeightsDistinct)
	d, err := boruvka.DecomposeOpt(g, 0, boruvka.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := hier.Scheme{Level: d.TotalPhases}
	advs, err := hier.Encode(d, []int{s.Level})
	if err != nil {
		t.Fatal(err)
	}
	adv := advs[0]
	nw := sim.NewNetwork(g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := nw.Run(s.NewNode, adv, sim.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for u := range res.ParentPorts {
		if res.ParentPorts[u] != d.ParentPort[u] {
			t.Fatalf("node %d: parent port %d, want %d", u, res.ParentPorts[u], d.ParentPort[u])
		}
	}
	const limit = 30 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("level %d decode allocated %.1f MiB", s.Level, float64(got)/(1<<20))
	if got > limit {
		t.Fatalf("decode allocated %.1f MiB, limit %d MiB", float64(got)/(1<<20), limit>>20)
	}
}
