package advice

import (
	"context"
	"errors"
	"reflect"
	"testing"

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

func TestMeasure(t *testing.T) {
	mk := func(bits int) *bitstring.BitString {
		s := bitstring.New(bits)
		for i := 0; i < bits; i++ {
			s.AppendBit(true)
		}
		return s
	}
	stats := Measure([]*bitstring.BitString{mk(3), mk(0), mk(7)}, 3)
	if stats.MaxBits != 7 || stats.TotalBits != 10 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.AvgBits < 3.32 || stats.AvgBits > 3.34 {
		t.Fatalf("avg = %f", stats.AvgBits)
	}
	empty := Measure(nil, 5)
	if empty.MaxBits != 0 || empty.TotalBits != 0 || empty.AvgBits != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
	zero := Measure(nil, 0)
	if zero.AvgBits != 0 {
		t.Fatal("division by zero guarded")
	}
}

func TestVerifyOutput(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(3).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(0, 2, 9))
	tree, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := mst.Root(g, tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := VerifyOutput(g, pp); !v.Verified || v.Root != 1 || v.VerifyErr != nil || v.Weight != 3 {
		t.Fatalf("valid output rejected or mismeasured: %+v", v)
	}

	// No root.
	bad := append([]int(nil), pp...)
	bad[1] = 0
	if VerifyOutput(g, bad).Verified {
		t.Fatal("rootless output accepted")
	}
	// Two roots.
	bad = append([]int(nil), pp...)
	bad[0] = -1
	if v := VerifyOutput(g, bad); v.Verified || v.Root != -1 {
		t.Fatalf("two-root output accepted or rooted: %+v", v)
	}
	// Non-minimum tree.
	bad = []int{g.PortAt(2, 0), -1, g.PortAt(2, 2)}
	if v := VerifyOutput(g, bad); v.Verified || v.Root != 1 || v.Weight != 18 {
		t.Fatalf("non-MST accepted or mismeasured: %+v", v)
	}
}

// failingScheme exercises the error paths of Run.
type failingScheme struct {
	adviseErr bool
	badLen    bool
}

func (f failingScheme) Name() string { return "failing" }
func (f failingScheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	if f.adviseErr {
		return nil, errors.New("oracle exploded")
	}
	if f.badLen {
		return make([]*bitstring.BitString, 1), nil
	}
	return nil, nil
}
func (f failingScheme) NewNode(view *sim.NodeView) sim.Node { return &stuckNode{} }

type stuckNode struct{}

func (*stuckNode) Start(*sim.Ctx, *sim.NodeView) []sim.Send                 { return nil }
func (*stuckNode) Round(*sim.Ctx, *sim.NodeView, []sim.Received) []sim.Send { return nil }
func (*stuckNode) Output() (int, bool)                                      { return -1, false }

func TestRunErrors(t *testing.T) {
	g := seeded(t, "ring", 5, 1, gen.WeightsDistinct)
	if _, err := Run(failingScheme{adviseErr: true}, g, 0, sim.Options{}); err == nil {
		t.Fatal("oracle error not propagated")
	}
	if _, err := Run(failingScheme{badLen: true}, g, 0, sim.Options{}); err == nil {
		t.Fatal("advice length mismatch not caught")
	}
	if _, err := Run(failingScheme{}, g, 0, sim.Options{}); err == nil {
		t.Fatal("non-terminating decoder not caught")
	}
}

// A scheme whose decoder emits a wrong tree must come back with
// Verified=false and a non-nil VerifyErr, not an error.
type wrongScheme struct{}

func (wrongScheme) Name() string { return "wrong" }
func (wrongScheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	return nil, nil
}
func (wrongScheme) NewNode(view *sim.NodeView) sim.Node { return &wrongNode{} }

type wrongNode struct{}

func (*wrongNode) Start(*sim.Ctx, *sim.NodeView) []sim.Send                 { return nil }
func (*wrongNode) Round(*sim.Ctx, *sim.NodeView, []sim.Received) []sim.Send { return nil }
func (*wrongNode) Output() (int, bool)                                      { return 0, true } // everyone claims port 0

func TestRunReportsVerificationFailure(t *testing.T) {
	g := seeded(t, "ring", 5, 2, gen.WeightsDistinct)
	res, err := Run(wrongScheme{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verified || res.VerifyErr == nil {
		t.Fatalf("wrong output verified: %+v", res)
	}
}

func TestRunCtxCanceledBeforeOracle(t *testing.T) {
	g := seeded(t, "path", 16, 1, gen.WeightsDistinct)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, core.Scheme{}, g, 0, sim.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on a canceled context = %v, want context.Canceled", err)
	}
}

func TestRunCtxCanceledMidRun(t *testing.T) {
	// A context that expires after the oracle stops the simulation at the
	// next round boundary: the oracle-side check passes (the context is
	// still live when RunCtx starts), the engine's per-round check fails,
	// and the error chain carries the cause. Driving sim.Options.Context
	// directly keeps the test deterministic — the engine sees the
	// cancellation exactly at its first between-round check.
	g := seeded(t, "random", 256, 2, gen.WeightsDistinct)
	simCtx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(context.Background(), core.Scheme{}, g, 0, sim.Options{Context: simCtx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx canceled mid-run = (%v, %v), want context.Canceled", res, err)
	}
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	g := seeded(t, "ring", 32, 3, gen.WeightsDistinct)
	a, err := Run(core.Scheme{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), core.Scheme{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages || !b.Verified {
		t.Fatalf("RunCtx(Background) diverged from Run: %+v vs %+v", a, b)
	}
}

// TestDecodeCtxMatchesRun: decoding the oracle's own assignment through
// DecodeCtx reproduces Run's Result on both engines, and a canceled
// context stops the decode.
func TestDecodeCtxMatchesRun(t *testing.T) {
	g := seeded(t, "random", 64, 4, gen.WeightsDistinct)
	assignment, err := core.Scheme{}.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, async := range []bool{false, true} {
		want, err := Run(core.Scheme{}, g, 0, sim.Options{Async: async})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCtx(context.Background(), core.Scheme{}, g, 0, assignment, sim.Options{Async: async})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Verified || !reflect.DeepEqual(want, got) {
			t.Fatalf("async=%v: DecodeCtx diverged from Run:\nrun:    %+v\ndecode: %+v", async, want, got)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecodeCtx(ctx, core.Scheme{}, g, 0, assignment, sim.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecodeCtx on a canceled context = %v, want context.Canceled", err)
	}
}
