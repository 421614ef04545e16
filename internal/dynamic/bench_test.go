package dynamic

import (
	"testing"
	"time"

	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
)

// bench10k builds the acceptance-criterion instance (n = 10 000,
// m = 30 000 random connected) with its advisor and a non-tree edge to
// churn.
func bench10k(tb testing.TB) (*Advisor, graph.EdgeID) {
	tb.Helper()
	g := seeded(tb, "random", 10000, 1, gen.WeightsDistinct)
	a, err := NewAdvisor(g, 0, core.DefaultCap)
	if err != nil {
		tb.Fatal(err)
	}
	for e := 0; e < a.Graph().M(); e++ {
		if !a.Sensitivity().InTree[e] {
			return a, graph.EdgeID(e)
		}
	}
	tb.Fatal("no non-tree edge")
	return nil, 0
}

// BenchmarkSingleEdgeUpdateIncremental measures the advisor's fast path:
// one tolerant non-tree weight update at n = 10 000, advice kept
// byte-identical to a full recompute.
func BenchmarkSingleEdgeUpdateIncremental(b *testing.B) {
	a, e := bench10k(b)
	w := a.Graph().Weight(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := w + graph.Weight(1+i%2) // alternate w+1 / w+2: every update is a change
		if _, err := a.Update(graph.Batch{Weights: []graph.WeightUpdate{{Edge: e, W: nw}}}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := a.Stats(); st.FullRecomputes != 0 {
		b.Fatalf("benchmark fell off the fast path: %+v", st)
	}
}

// BenchmarkSingleEdgeUpdateFullRecompute is the baseline the fast path is
// measured against: re-running the full Theorem 3 oracle after the same
// single-edge update.
func BenchmarkSingleEdgeUpdateFullRecompute(b *testing.B) {
	a, e := bench10k(b)
	g := a.Graph()
	w := g.Weight(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.ApplyBatch(graph.Batch{Weights: []graph.WeightUpdate{{Edge: e, W: w + graph.Weight(1+i%2)}}}); err != nil {
			b.Fatal(err)
		}
		if _, err := core.BuildAdvice(g, 0, core.DefaultCap); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIncrementalSpeedupAtScale is the acceptance criterion as a test:
// at n = 10 000, a single-edge weight update absorbed incrementally is
// byte-identical to a full recompute and at least 5x faster (in practice
// the gap is several orders of magnitude; 5x leaves a wide margin for
// noisy CI machines).
func TestIncrementalSpeedupAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale benchmark skipped in -short mode")
	}
	a, e := bench10k(t)
	w := a.Graph().Weight(e)

	const updates = 50
	start := time.Now()
	for i := 0; i < updates; i++ {
		if _, err := a.Update(graph.Batch{Weights: []graph.WeightUpdate{{Edge: e, W: w + graph.Weight(1+i%2)}}}); err != nil {
			t.Fatal(err)
		}
	}
	incPer := time.Since(start) / updates

	start = time.Now()
	want, err := core.BuildAdvice(a.Graph(), 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	fullPer := time.Since(start)

	if u, ok := adviceEqual(a.Advice(), want); !ok {
		t.Fatalf("incremental advice differs from full recompute at node %d", u)
	}
	if st := a.Stats(); st.FastPath != updates {
		t.Fatalf("expected %d fast-path updates, got %+v", updates, st)
	}
	if fullPer < 5*incPer {
		t.Fatalf("incremental update %v is not >=5x faster than full recompute %v", incPer, fullPer)
	}
	t.Logf("n=10000: incremental %v/update vs full recompute %v (%.0fx)",
		incPer, fullPer, float64(fullPer)/float64(incPer))
}
