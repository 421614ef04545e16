package dynamic

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
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

func adviceEqual(a, b []*bitstring.BitString) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for u := range a {
		if a[u].String() != b[u].String() {
			return u, false
		}
	}
	return 0, true
}

// TestSensitivityExact verifies WouldChange against brute force: for a
// sample of (edge, new weight) pairs, compare the prediction with the
// MST of the actually-patched graph, re-solved by the naive reference
// (which shares no sort with Analyze).
func TestSensitivityExact(t *testing.T) {
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := seeded(t, "random", 24, uint64(seed), mode)
			s, err := Analyze(g)
			if err != nil {
				t.Fatal(err)
			}
			ref := reference.Kruskal(g)
			for trial := 0; trial < 200; trial++ {
				e := graph.EdgeID(rng.Intn(g.M()))
				w := graph.Weight(rng.Intn(2*g.M()) + 1)
				pred := s.WouldChange(e, w)
				patched := g.Clone()
				if err := patched.ApplyBatch(graph.Batch{Weights: []graph.WeightUpdate{{Edge: e, W: w}}}); err != nil {
					t.Fatal(err)
				}
				if changed := !slices.Equal(ref, reference.Kruskal(patched)); changed != pred {
					t.Fatalf("mode %v seed %d: edge %d (inTree=%v, w %d -> %d): WouldChange=%v, brute force=%v",
						mode, seed, e, s.InTree[e], g.Weight(e), w, pred, changed)
				}
			}
		}
	}
}

// TestToleranceBoundary probes each edge exactly at and just past its
// tolerance: within it the MST must not change.
func TestToleranceBoundary(t *testing.T) {
	g := seeded(t, "random", 30, 7, gen.WeightsDistinct)
	s, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := reference.Kruskal(g)
	check := func(e graph.EdgeID, w graph.Weight, wantChange bool) {
		t.Helper()
		if w < 1 {
			return
		}
		patched := g.Clone()
		if err := patched.ApplyBatch(graph.Batch{Weights: []graph.WeightUpdate{{Edge: e, W: w}}}); err != nil {
			t.Fatal(err)
		}
		if changed := !slices.Equal(ref, reference.Kruskal(patched)); changed != wantChange {
			t.Fatalf("edge %d at weight %d: changed=%v, want %v", e, w, changed, wantChange)
		}
	}
	for e := 0; e < g.M(); e++ {
		limit, bounded := s.Tolerance(graph.EdgeID(e))
		if !bounded {
			check(graph.EdgeID(e), 1<<20, false) // bridge: arbitrary growth
			continue
		}
		// Weights are distinct, so crossing strictly past the limit flips
		// the MST and stopping one short does not.
		if s.InTree[e] {
			check(graph.EdgeID(e), limit-1, false)
			check(graph.EdgeID(e), limit+1, true)
		} else {
			check(graph.EdgeID(e), limit+1, false)
			check(graph.EdgeID(e), limit-1, true)
		}
	}
}

// TestSwapBruteForce checks both walks edge by edge: on small graphs of
// every family and weight mode, InTree is the naive reference's tree,
// and every Swap is bruteSwaps' on that tree.
func TestSwapBruteForce(t *testing.T) {
	for _, fam := range gen.Names() {
		for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
			for _, n := range []int{2, 3, 17, 64} {
				g := seeded(t, fam, n, uint64(n)*31+uint64(mode), mode)
				s, err := Analyze(g)
				if err != nil {
					t.Fatal(err)
				}
				inTree := treeFlags(g, reference.Kruskal(g))
				if !slices.Equal(s.InTree, inTree) {
					t.Fatalf("%s/%v/n=%d: InTree %v, reference %v", fam, mode, n, s.InTree, inTree)
				}
				for e, want := range bruteSwaps(g, inTree) {
					if got := s.Swap[e]; got != want {
						t.Fatalf("%s/%v/n=%d: edge %d (inTree=%v) has swap %d, brute force %d", fam, mode, n, e, inTree[e], got, want)
					}
				}
			}
		}
	}
}

// TestSensitivityRetainedHeap bounds what an analysis keeps once
// Analyze returns: on a seeded random graph with n = 10⁵ and m = 3n,
// InTree and Swap (1.43 MiB) are all a Sensitivity holds besides the
// graph. It retains 1.44–1.45 MiB on a 2-core host, the same under the
// race detector, and the bound is that plus 25%. The binary-lifting
// table and the rooted-tree fields it replaced retained 16.4 MiB.
func TestSensitivityRetainedHeap(t *testing.T) {
	g := seeded(t, "random", 100_000, 94, gen.WeightsDistinct)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	const limit = 1.25 * 1.45 * (1 << 20)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("Analyze at n=%d, m=%d retains %.2f MiB", g.N(), g.M(), retained/(1<<20))
	if retained > limit {
		t.Fatalf("a Sensitivity retains %.2f MiB, limit %.2f MiB", retained/(1<<20), limit/(1<<20))
	}
}

// treeFlags flags the edges of tree.
func treeFlags(g *graph.Graph, tree []graph.EdgeID) []bool {
	in := make([]bool, g.M())
	for _, e := range tree {
		in[e] = true
	}
	return in
}

// bruteSwaps finds every edge's swap in the spanning tree inTree flags,
// one edge at a time, by a BFS over the tree edges from the edge's
// first endpoint that never crosses the edge itself. A tree edge's swap
// is the minimum non-tree edge, under GlobalKey.Less, from a node the
// BFS reached to one it did not (-1 if none: a bridge). A non-tree
// edge's is the maximum-key tree edge on the BFS path back from its
// second endpoint.
func bruteSwaps(g *graph.Graph, inTree []bool) []graph.EdgeID {
	swaps := make([]graph.EdgeID, g.M())
	via := make([]graph.EdgeID, g.N()) // a reached node's tree edge towards the source; -2 unreached
	for e := range graph.EdgeID(g.M()) {
		rec := g.Edge(e)
		for u := range via {
			via[u] = -2
		}
		via[rec.U] = -1
		for queue := []graph.NodeID{rec.U}; len(queue) > 0; queue = queue[1:] {
			for _, f := range g.Ports(queue[0]) {
				if v := g.Other(f, queue[0]); inTree[f] && f != e && via[v] == -2 {
					via[v] = f
					queue = append(queue, v)
				}
			}
		}
		swaps[e] = -1
		if inTree[e] {
			for f := range graph.EdgeID(g.M()) {
				fr := g.Edge(f)
				if !inTree[f] && (via[fr.U] == -2) != (via[fr.V] == -2) && (swaps[e] == -1 || g.Key(f).Less(g.Key(swaps[e]))) {
					swaps[e] = f
				}
			}
			continue
		}
		for v := rec.V; via[v] != -1; v = g.Other(via[v], v) {
			if swaps[e] == -1 || g.Key(swaps[e]).Less(g.Key(via[v])) {
				swaps[e] = via[v]
			}
		}
	}
	return swaps
}

// TestWeightBatchEqualsRebuildAllFamilies is the satellite property test:
// for every registered family and several seeds, a random batch of
// weight updates applied incrementally equals a from-scratch rebuild —
// graph, MST and advice all byte-for-byte.
func TestWeightBatchEqualsRebuildAllFamilies(t *testing.T) {
	for _, fam := range gen.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed * 1000))
			g := seeded(t, fam, 33, uint64(seed*1000), gen.WeightsDistinct)
			var batch graph.Batch
			for k := 0; k < 10; k++ {
				batch.Weights = append(batch.Weights, graph.WeightUpdate{
					Edge: graph.EdgeID(rng.Intn(g.M())),
					W:    graph.Weight(rng.Intn(3*g.M()) + 1),
				})
			}
			inc := g.Clone()
			if err := inc.ApplyBatch(batch); err != nil {
				t.Fatalf("%s/%d: %v", fam, seed, err)
			}
			// From-scratch rebuild: the original edge records (topology and
			// ports) and IDs with the final weights.
			finalW := make([]graph.Weight, g.M())
			for e := range finalW {
				finalW[e] = g.Weight(graph.EdgeID(e))
			}
			for _, wu := range batch.Weights {
				finalW[wu.Edge] = wu.W
			}
			ids := make([]int64, g.N())
			for u := range ids {
				ids[u] = g.ID(graph.NodeID(u))
			}
			recs := make([]graph.Edge, g.M())
			for e := range recs {
				recs[e] = g.Edge(graph.EdgeID(e))
				recs[e].W = finalW[e]
			}
			rebuilt, err := graph.FromEdgeList(g.N(), ids, recs, 1)
			if err != nil {
				t.Fatalf("%s/%d: rebuild: %v", fam, seed, err)
			}
			if err := reference.Equal(inc, rebuilt); err != nil {
				t.Fatalf("%s/%d: graph mismatch: %v", fam, seed, err)
			}
			ti, err := mst.Kruskal(inc)
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := mst.Kruskal(rebuilt)
			if !slices.Equal(ti, tr) {
				t.Fatalf("%s/%d: MST mismatch", fam, seed)
			}
			ai, err := core.BuildAdvice(inc, 0, core.DefaultCap)
			if err != nil {
				t.Fatal(err)
			}
			ar, _ := core.BuildAdvice(rebuilt, 0, core.DefaultCap)
			if u, ok := adviceEqual(ai, ar); !ok {
				t.Fatalf("%s/%d: advice mismatch at node %d", fam, seed, u)
			}
		}
	}
}

// TestAdvisorMatchesFullRecompute drives an Advisor through a mixed
// update stream — tolerant non-tree perturbations (fast path), tree-edge
// and tolerance-crossing updates and deletions (full path) — and asserts
// after every batch that its advice is byte-identical to a fresh oracle
// run on the patched graph.
func TestAdvisorMatchesFullRecompute(t *testing.T) {
	for _, fam := range gen.Names() {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed * 77))
			g := seeded(t, fam, 40, uint64(seed*77), gen.WeightsDistinct)
			root := graph.NodeID(rng.Intn(g.N()))
			a, err := NewAdvisor(g.Clone(), root, core.DefaultCap)
			if err != nil {
				t.Fatalf("%s/%d: %v", fam, seed, err)
			}
			for step := 0; step < 12; step++ {
				var batch graph.Batch
				switch step % 4 {
				case 0: // tolerant raise of a non-tree edge, if any
					for e := 0; e < a.Graph().M(); e++ {
						if !a.Sensitivity().InTree[e] {
							batch.Weights = append(batch.Weights, graph.WeightUpdate{
								Edge: graph.EdgeID(e), W: a.Graph().Weight(graph.EdgeID(e)) + 1,
							})
							break
						}
					}
				case 1: // random reweight anywhere (may cross tolerances)
					batch.Weights = append(batch.Weights, graph.WeightUpdate{
						Edge: graph.EdgeID(rng.Intn(a.Graph().M())),
						W:    graph.Weight(rng.Intn(2*a.Graph().M()) + 1),
					})
				case 2: // tree edge reweight
					var tr []graph.EdgeID
					for e, in := range a.Sensitivity().InTree {
						if in {
							tr = append(tr, graph.EdgeID(e))
						}
					}
					if len(tr) > 0 {
						e := tr[rng.Intn(len(tr))]
						batch.Weights = append(batch.Weights, graph.WeightUpdate{
							Edge: e, W: a.Graph().Weight(e) + graph.Weight(rng.Intn(5)+1),
						})
					}
				case 3: // deletion of a non-tree edge, if any
					for e := 0; e < a.Graph().M(); e++ {
						if !a.Sensitivity().InTree[e] {
							batch.Deletions = append(batch.Deletions, graph.EdgeID(e))
							break
						}
					}
				}
				if batch.Empty() {
					continue
				}
				if _, err := a.Update(batch); err != nil {
					t.Fatalf("%s/%d step %d: %v", fam, seed, step, err)
				}
				want, err := core.BuildAdvice(a.Graph(), root, core.DefaultCap)
				if err != nil {
					t.Fatalf("%s/%d step %d: full oracle: %v", fam, seed, step, err)
				}
				if u, ok := adviceEqual(a.Advice(), want); !ok {
					t.Fatalf("%s/%d step %d: advisor advice differs from full recompute at node %d",
						fam, seed, step, u)
				}
			}
			st := a.Stats()
			if st.Batches == 0 || st.FullRecomputes == 0 {
				t.Fatalf("%s/%d: update mix not exercised: %+v", fam, seed, st)
			}
		}
	}
}

// TestAdvisorFastPathTaken pins that tolerant non-tree updates really
// take the incremental path (on a family with plenty of non-tree edges).
func TestAdvisorFastPathTaken(t *testing.T) {
	g := seeded(t, "random", 64, 3, gen.WeightsDistinct)
	a, err := NewAdvisor(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	fastBatches := 0
	for e := 0; e < a.Graph().M() && fastBatches < 10; e++ {
		if a.Sensitivity().InTree[e] {
			continue
		}
		res, err := a.Update(graph.Batch{Weights: []graph.WeightUpdate{
			{Edge: graph.EdgeID(e), W: a.Graph().Weight(graph.EdgeID(e)) + 2},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Incremental {
			t.Fatalf("tolerant non-tree raise of edge %d took the full path", e)
		}
		fastBatches++
	}
	if st := a.Stats(); st.FastPath != fastBatches || fastBatches == 0 {
		t.Fatalf("fast path count %d, want %d > 0", a.Stats().FastPath, fastBatches)
	}
}

// TestAdvisorFastPathReencodes forces a fast-path update that really
// rewrites advice bits: a tolerant weight change on a non-tree edge
// incident to a final-fragment root reorders it against the root's
// parent edge, so the fragment's final-stage rank — and the carrier
// nodes' advice — must change, byte-identically to a full recompute.
// The advice published before the update (a copy of the pointer slice,
// as service.Update publishes it) must keep its bytes: a re-encode
// replaces strings, never rewrites one.
func TestAdvisorFastPathReencodes(t *testing.T) {
	reencoded := false
	for seed := int64(1); seed <= 40 && !reencoded; seed++ {
		g := seeded(t, "random", 48, uint64(seed), gen.WeightsDistinct)
		a, err := NewAdvisor(g, 0, core.DefaultCap)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range a.detail.Frags {
			f := a.detail.Frags[fi]
			if f.ParentPort < 0 {
				continue
			}
			parentKey := a.Graph().Key(a.Graph().HalfAt(f.Root, f.ParentPort).Edge)
			for p := 0; p < a.Graph().Degree(f.Root); p++ {
				h := a.Graph().HalfAt(f.Root, p)
				if p == f.ParentPort || a.sens.InTree[h.Edge] {
					continue
				}
				// Try to move h across the parent edge's weight while
				// staying above its own tolerance.
				var newW graph.Weight
				if parentKey.W < a.Graph().Weight(h.Edge) {
					newW = parentKey.W // drop just to the parent's weight
				} else {
					newW = parentKey.W + 1 // raise just past it
				}
				if newW < 1 || a.sens.WouldChange(h.Edge, newW) {
					continue
				}
				published := append([]*bitstring.BitString(nil), a.Advice()...)
				clones := make([]*bitstring.BitString, len(published))
				for u, s := range published {
					clones[u] = s.Clone()
				}
				res, err := a.Update(graph.Batch{Weights: []graph.WeightUpdate{{Edge: h.Edge, W: newW}}})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Incremental {
					t.Fatalf("seed %d: tolerant update took the full path", seed)
				}
				if len(res.Changed) == 0 {
					continue // rank unchanged after all; keep searching
				}
				want, err := core.BuildAdvice(a.Graph(), 0, core.DefaultCap)
				if err != nil {
					t.Fatal(err)
				}
				if u, ok := adviceEqual(a.Advice(), want); !ok {
					t.Fatalf("seed %d: re-encoded advice differs from oracle at node %d", seed, u)
				}
				if u, ok := adviceEqual(published, clones); !ok {
					t.Fatalf("seed %d: the re-encode rewrote node %d's published advice", seed, u)
				}
				reencoded = true
			}
			if reencoded {
				break
			}
		}
	}
	if !reencoded {
		t.Fatal("no fast-path update re-encoded any advice; patchFinals never exercised")
	}
}

// TestAdvisorEndToEnd decodes the advisor's incrementally-patched advice
// with the real Theorem 3 decoder on the patched graph and verifies the
// exact rooted MST comes out.
func TestAdvisorEndToEnd(t *testing.T) {
	for _, famName := range []string{"random", "expander", "lollipop"} {
		rng := rand.New(rand.NewSource(11))
		g := seeded(t, famName, 48, 11, gen.WeightsDistinct)
		a, err := NewAdvisor(g, 5, core.DefaultCap)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			// Mixed stream: raises (fast) and random reweights (maybe full).
			e := graph.EdgeID(rng.Intn(a.Graph().M()))
			w := a.Graph().Weight(e) + graph.Weight(rng.Intn(7)+1)
			if _, err := a.Update(graph.Batch{Weights: []graph.WeightUpdate{{Edge: e, W: w}}}); err != nil {
				t.Fatal(err)
			}
			res, err := sim.NewNetwork(a.Graph()).Run(core.Scheme{}.NewNode, a.Advice(), sim.Options{})
			if err != nil {
				t.Fatalf("%s step %d: %v", famName, step, err)
			}
			if v := advice.VerifyOutput(a.Graph(), res.ParentPorts); !v.Verified || v.Root != 5 {
				t.Fatalf("%s step %d: decode not the rooted MST (root %d): %v", famName, step, v.Root, v.VerifyErr)
			}
		}
	}
}

// TestScenarioRunsDeterministicAcrossWorkers is the satellite
// determinism test at scheme level: a core-scheme run under a fault
// Scenario is byte-identical for any worker count.
func TestScenarioRunsDeterministicAcrossWorkers(t *testing.T) {
	g := seeded(t, "random", 80, 21, gen.WeightsDistinct)
	s, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	sc := NonTreeLinkFailures(s, 8, 2)
	sc.Events = append(sc.Events, tolerantPerturbations(s, 4, 3, rand.New(rand.NewSource(5))).Events...)
	full := runtime.GOMAXPROCS(0)
	if full < 2 {
		full = 2
	}
	run := func(workers int) *advice.Result {
		res, err := advice.Run(core.Scheme{}, g, 0, sim.Options{
			Workers: workers, Scenario: sc,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{2, full} {
		if got := run(workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged:\nseq: %+v\npar: %+v", workers, want, got)
		}
	}
	if want.Sent != want.Messages+want.LinkDropped {
		t.Fatalf("conservation violated: %+v", want)
	}
}

// TestAdviceSurvivesNonTreeLinkFailures pins what the Theorem 3 decoder
// tolerates: every non-tree link failing from the first round of the
// final window never changes its output, because the final collect runs
// over tree edges only. Before that window the decoder does use non-tree
// links — each phase's broadcast sends a level report on every non-tree
// port, and the choosing node reads them — so links failing from round 2
// must drop messages.
func TestAdviceSurvivesNonTreeLinkFailures(t *testing.T) {
	for _, famName := range []string{"random", "expander", "wheel"} {
		g := seeded(t, famName, 64, 31, gen.WeightsDistinct)
		s, err := Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := advice.Run(core.Scheme{}, g, 0, sim.Options{})
		if err != nil {
			t.Fatalf("%s: %v", famName, err)
		}
		sched := core.NewSchedule(g.N(), core.DefaultCap)
		final := sched.Total() - sched.FinalDecodeSlot()
		all := g.M() - (g.N() - 1)
		res, err := advice.Run(core.Scheme{}, g, 0, sim.Options{Scenario: NonTreeLinkFailures(s, all, final)})
		if err != nil {
			t.Fatalf("%s: %v", famName, err)
		}
		if !res.Verified || !reflect.DeepEqual(res.ParentPorts, ref.ParentPorts) {
			t.Fatalf("%s: decode with non-tree links down from round %d changed the output: %v", famName, final, res.VerifyErr)
		}
		early, err := advice.Run(core.Scheme{}, g, 0, sim.Options{Scenario: NonTreeLinkFailures(s, all, 2)})
		if err == nil && early.LinkDropped == 0 {
			t.Fatalf("%s: non-tree links down from round 2 dropped no message", famName)
		}
	}
}

func TestUpdateCtxCanceled(t *testing.T) {
	g := seeded(t, "random", 64, 5, gen.WeightsDistinct)
	adv, err := NewAdvisor(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	before := adv.Graph().Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A canceled slow-path update (deletion => full recompute) must leave
	// graph and advice untouched.
	var target graph.EdgeID = -1
	for e := 0; e < adv.Graph().M(); e++ {
		if !adv.Sensitivity().InTree[e] {
			target = graph.EdgeID(e)
			break
		}
	}
	if target == -1 {
		t.Skip("no non-tree edge")
	}
	_, err = adv.UpdateCtx(ctx, graph.Batch{Deletions: []graph.EdgeID{target}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("UpdateCtx on canceled context = %v, want context.Canceled", err)
	}
	if err := reference.Equal(before, adv.Graph()); err != nil {
		t.Fatalf("canceled update mutated the graph: %v", err)
	}
	if adv.Stats().Batches != 0 {
		t.Fatalf("canceled update counted a batch: %+v", adv.Stats())
	}
	// With a live context the same update applies normally.
	res, err := adv.UpdateCtx(context.Background(), graph.Batch{Deletions: []graph.EdgeID{target}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental {
		t.Fatal("deletion took the fast path")
	}
	fresh, err := core.BuildAdvice(adv.Graph(), 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := adviceEqual(fresh, adv.Advice()); !ok {
		t.Fatalf("advice differs from oracle at node %d after post-cancel update", u)
	}
}

// tolerantPerturbations schedules k weight perturbations on non-tree
// edges that stay strictly above their tolerance, drawn deterministically
// from rng: churn the MST is insensitive to. Events are spread over
// rounds [round, round+k).
func tolerantPerturbations(s *Sensitivity, k, round int, rng *rand.Rand) *sim.Scenario {
	sc := &sim.Scenario{}
	var nonTree []graph.EdgeID
	for e := 0; e < s.G.M(); e++ {
		if !s.InTree[e] {
			nonTree = append(nonTree, graph.EdgeID(e))
		}
	}
	if len(nonTree) == 0 {
		return sc
	}
	for i := 0; i < k; i++ {
		e := nonTree[rng.Intn(len(nonTree))]
		w := s.G.Weight(e) + graph.Weight(rng.Intn(5)+1) // raising never crosses the tolerance
		sc.Events = append(sc.Events, sim.ScenarioEvent{
			Round: round + i, Edge: e, Action: sim.ActionSetWeight, W: w,
		})
	}
	return sc
}
