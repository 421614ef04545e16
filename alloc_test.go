package mstadvice

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/problem/topo"
	"mstadvice/internal/reference"
	"mstadvice/internal/sim"
	"mstadvice/internal/store"
)

// allocGraph builds the seeded instance cmd/experiments draws at -seed 1
// for the given salt (generator seed 1·1315423911 + salt): the rows below
// keep the instances their budgets were measured on.
func allocGraph(t *testing.T, family string, n int, salt int64) *graph.Graph {
	t.Helper()
	g, err := gen.BuildSeeded(family, n, uint64(1315423911+salt), gen.SeededOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mallocs returns the number of heap objects allocated while f runs.
// The count is process-global, which is why TestAllocationBudgets never
// runs in parallel with other tests.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func mustRunScheme(t *testing.T, s advice.Scheme, g *graph.Graph, opt sim.Options) *advice.Result {
	t.Helper()
	res, err := advice.Run(s, g, 0, opt)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

func sameAdvice(a, b []*bitstring.BitString) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if !a[u].Equal(b[u]) {
			return false
		}
	}
	return true
}

// TestAllocationBudgets gates the allocation count of each pipeline
// layer at a fixed size and seed. Every budget is at most twice the
// count measured when it was set, so a reintroduced per-node map or a
// lost arena (a 10–1000× jump) fails here while allocator noise does
// not. Each row also checks the output it measured. Wall time is not
// gated here: bench/ measures it on the host that runs it.
func TestAllocationBudgets(t *testing.T) {
	t.Run("oracle", testOracleAllocs)
	t.Run("store", testStoreAllocs)
	t.Run("async", testAsyncAllocs)
	t.Run("topo", testTopoAllocs)
}

// testOracleAllocs budgets seeded generation and the oracle (Borůvka
// decomposition plus fused encoding) at n = 10⁴ for each worker count,
// and checks that every worker count yields the 1-worker graph and
// advice byte for byte.
func testOracleAllocs(t *testing.T) {
	const n = 10_000
	seed := uint64(1)*0x9E3779B97F4A7C15 ^ uint64(n)
	build := func(workers int) (g *graph.Graph, adv []*bitstring.BitString, genAllocs, oracleAllocs uint64) {
		var err error
		genAllocs = mallocs(func() {
			g, err = gen.BuildSeeded("random", n, seed, gen.SeededOptions{Workers: workers})
		})
		if err != nil {
			t.Fatal(err)
		}
		var d *core.AdviceDetail
		oracleAllocs = mallocs(func() {
			d, err = core.BuildAdviceDetailOpt(g, 0, core.DefaultCap, core.OracleOptions{Workers: workers})
		})
		if err != nil {
			t.Fatal(err)
		}
		return g, d.Advice, genAllocs, oracleAllocs
	}
	build(1) // the first run at a size pays allocator growth

	var refG *graph.Graph
	var refAdv []*bitstring.BitString
	for _, row := range []struct {
		workers     int
		gen, oracle uint64
	}{
		{1, 98, 444},
		{4, 1112, 3198},
		{8, 1426, 3840},
	} {
		g, adv, genAllocs, oracleAllocs := build(row.workers)
		if refG == nil {
			refG, refAdv = g, adv
		}
		t.Logf("workers=%d: generation %d allocs (budget %d), oracle %d allocs (budget %d)",
			row.workers, genAllocs, row.gen, oracleAllocs, row.oracle)
		if genAllocs > row.gen {
			t.Errorf("workers=%d: seeded generation allocates %d objects, budget %d", row.workers, genAllocs, row.gen)
		}
		if oracleAllocs > row.oracle {
			t.Errorf("workers=%d: oracle allocates %d objects, budget %d", row.workers, oracleAllocs, row.oracle)
		}
		if err := reference.Equal(refG, g); err != nil {
			t.Errorf("workers=%d: graph differs from the 1-worker graph: %v", row.workers, err)
		}
		if !sameAdvice(refAdv, adv) {
			t.Errorf("workers=%d: advice differs from the 1-worker advice", row.workers)
		}
	}
}

// testStoreAllocs budgets the store round trip (Save, then OpenMapped)
// at n = 10⁵ under GOMAXPROCS = 1, where its count was measured, and
// checks that the graph and advice come back bit for bit.
func testStoreAllocs(t *testing.T) {
	const budget = 110
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100_000
	g := allocGraph(t, "random", n, n+271)
	adv, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.mstadv")
	var snap *store.Snapshot
	allocs := mallocs(func() {
		if err = store.Save(path, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adv}); err == nil {
			snap, err = store.OpenMapped(path)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("store round trip at n=%d: %d allocs (budget %d)", n, allocs, budget)
	if allocs > budget {
		t.Errorf("store round trip allocates %d objects, budget %d", allocs, budget)
	}
	if err := reference.Equal(g, snap.Graph); err != nil {
		t.Errorf("graph after the round trip: %v", err)
	}
	if !sameAdvice(adv, snap.Advice) {
		t.Error("advice after the round trip differs from the oracle's")
	}
}

// testAsyncAllocs budgets the Theorem 3 decoder under the
// α-synchronizer on the event-driven engine — every family under FIFO
// at n = 256, and the random family under each scheduler at n = 1024 —
// and checks full parity with the synchronous run: a verified MST, as
// many pulses as synchronous rounds, equal payload counts and identical
// outputs.
func testAsyncAllocs(t *testing.T) {
	fifo, lifo, maxDelay := sim.FIFO{}, sim.LIFO{}, sim.MaxDelay{Delay: 11}
	for _, row := range []struct {
		family string
		n      int
		sched  sim.Scheduler
		budget uint64
	}{
		{"path", 256, fifo, 183_354},
		{"ring", 256, fifo, 183_838},
		{"grid", 256, fifo, 241_268},
		{"tree", 256, fifo, 155_788},
		{"random", 256, fifo, 321_302},
		{"expander", 256, fifo, 327_400},
		{"star", 256, fifo, 106_804},
		{"caterpillar", 256, fifo, 162_692},
		{"binarytree", 256, fifo, 160_404},
		{"complete", 256, fifo, 2_568_008},
		{"wheel", 256, fifo, 219_842},
		{"lollipop", 256, fifo, 1_060_440},
		{"random", 1024, fifo, 2_120_668},
		{"random", 1024, lifo, 2_118_710},
		{"random", 1024, maxDelay, 1_864_128},
	} {
		t.Run(fmt.Sprintf("%s/%s/%d", row.sched.Name(), row.family, row.n), func(t *testing.T) {
			g := allocGraph(t, row.family, row.n, int64(row.n)+31)
			syncRes := mustRunScheme(t, core.Scheme{}, g, sim.Options{})
			opt := sim.Options{
				Async:     true,
				Workers:   1,
				Latency:   sim.UniformLatency{Seed: 1 + 101, Min: 1, Max: 8},
				Scheduler: row.sched,
			}
			var asyncRes *advice.Result
			allocs := mallocs(func() { asyncRes = mustRunScheme(t, core.Scheme{}, g, opt) })
			t.Logf("%d allocs (budget %d); %d pulses, virtual time %d, payload %d msgs / %d bits, synchronizer %d msgs / %d bits",
				allocs, row.budget, asyncRes.Pulses, asyncRes.VirtualTime, asyncRes.Messages, asyncRes.TotalBits,
				asyncRes.SyncMessages, asyncRes.SyncBits)
			if allocs > row.budget {
				t.Errorf("async run allocates %d objects, budget %d", allocs, row.budget)
			}
			if !asyncRes.Verified || asyncRes.Pulses != syncRes.Rounds ||
				asyncRes.Messages != syncRes.Messages || asyncRes.TotalBits != syncRes.TotalBits ||
				!reflect.DeepEqual(asyncRes.ParentPorts, syncRes.ParentPorts) {
				t.Errorf("no sync/async parity: verified=%v pulses=%d rounds=%d messages %d/%d bits %d/%d",
					asyncRes.Verified, asyncRes.Pulses, syncRes.Rounds,
					asyncRes.Messages, syncRes.Messages, asyncRes.TotalBits, syncRes.TotalBits)
			}
		})
	}
}

// testTopoAllocs budgets the topology-recognition problem's flood
// scheme on the synchronous engine — every family at n = 256, and three
// beacon radii on the random family at n = 1024. Every row must verify
// its class at every node; the family rows also check parity with an
// asynchronous run (verified, pulses equal to the synchronous rounds,
// identical outputs).
func testTopoAllocs(t *testing.T) {
	for _, row := range []struct {
		family string
		n      int
		radius int
		budget uint64
	}{
		{"path", 256, 0, 4_932},
		{"ring", 256, 0, 3_674},
		{"grid", 256, 0, 3_330},
		{"tree", 256, 0, 2_750},
		{"random", 256, 0, 4_282},
		{"expander", 256, 0, 4_292},
		{"star", 256, 0, 2_696},
		{"caterpillar", 256, 0, 4_006},
		{"binarytree", 256, 0, 2_808},
		{"complete", 256, 0, 132_250},
		{"wheel", 256, 0, 3_718},
		{"lollipop", 256, 0, 35_760},
		{"random", 1024, 0, 16_724},
		{"random", 1024, 2, 16_896},
		{"random", 1024, 8, 16_746},
	} {
		s := topo.Flood{Radius: row.radius}
		t.Run(fmt.Sprintf("%s/%s/%d", s.Name(), row.family, row.n), func(t *testing.T) {
			g := allocGraph(t, row.family, row.n, int64(row.n)+59)
			var res *advice.Result
			allocs := mallocs(func() { res = mustRunScheme(t, s, g, sim.Options{Workers: 1}) })
			t.Logf("%d allocs (budget %d); %d rounds, %d messages", allocs, row.budget, res.Rounds, res.Messages)
			if allocs > row.budget {
				t.Errorf("topology run allocates %d objects, budget %d", allocs, row.budget)
			}
			if !res.Verified || res.Problem != topo.Name {
				t.Errorf("run not verified: verified=%v problem=%q", res.Verified, res.Problem)
			}
			if row.n != 256 {
				return // the radius sweep checks the synchronous run only
			}
			asyncRes := mustRunScheme(t, s, g, sim.Options{
				Async:   true,
				Workers: 1,
				Latency: sim.UniformLatency{Seed: 1 + 41, Min: 1, Max: 8},
			})
			if !asyncRes.Verified || asyncRes.Pulses != res.Rounds ||
				!reflect.DeepEqual(asyncRes.ParentPorts, res.ParentPorts) {
				t.Errorf("no sync/async parity: verified=%v pulses=%d rounds=%d",
					asyncRes.Verified, asyncRes.Pulses, res.Rounds)
			}
		})
	}
}
