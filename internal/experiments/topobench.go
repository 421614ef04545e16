package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"mstadvice/internal/problem/topo"
	"mstadvice/internal/report"
	"mstadvice/internal/sim"
)

// E12Topology exercises the second registered advice problem (topology
// recognition, DESIGN.md §2.8): every node must output the graph's
// topology class. E12a sweeps the families under the canonical flooding
// scheme on both engines, E12b traces the problem's own advice-vs-rounds
// tradeoff through the beacon radius, and E12c replays the Theorem 1
// pigeonhole argument on the chord-position family.
func E12Topology(c Config) []*report.Table {
	n := 256
	if c.Sizes != nil {
		n = c.Sizes[len(c.Sizes)-1]
	}
	t1 := report.New(fmt.Sprintf("E12a  topology recognition across families (flood scheme, n≈%d)", n),
		"family", "n", "class", "shape", "advice total [bits]", "rounds", "verified", "async parity")
	for _, fam := range c.allFamilies() {
		g := c.graph(fam, n, int64(n)+71)
		syncRes := mustRun(topo.Flood{}, g, 0, sim.Options{})
		asyncRes := mustRun(topo.Flood{}, g, 0, sim.Options{
			Async:   true,
			Latency: sim.UniformLatency{Seed: c.Seed + 7, Min: 1, Max: 8},
		})
		parity := asyncRes.Verified && reflect.DeepEqual(asyncRes.ParentPorts, syncRes.ParentPorts)
		t1.Add(fam, g.N(), fmt.Sprintf("%#08x", topo.Class(g)), topo.Shape(g),
			syncRes.Advice.TotalBits, syncRes.Rounds, syncRes.Verified, parity)
	}
	t1.Note = "one class tag at the root floods outward; the unmodified decoders run on both engines"

	t2 := report.New("E12b  the (m, t) tradeoff on the second problem: beacon radius vs rounds (grid)",
		"radius", "advice total [bits]", "advice max", "rounds", "messages", "verified")
	g := c.graph("grid", 1024, 1024+71)
	for _, r := range []int{0, 1, 2, 4, 8, 16} {
		res := mustRun(topo.Flood{Radius: r}, g, 0, sim.Options{})
		t2.Add(r, res.Advice.TotalBits, res.Advice.MaxBits, res.Rounds, res.Messages, res.Verified)
	}
	t2.Note = "more beacons (larger radius) buy fewer rounds — the paper's tradeoff, on topology recognition"

	fam, err := topo.NewFamily(64, 16)
	if err != nil {
		panic(err)
	}
	t3 := report.New(fmt.Sprintf("E12c  advice lower bound for topology recognition (k=%d chord positions, n=%d)", fam.K, 64),
		"advice bits m", "instances served", "pigeonhole bound min(2^m,k)", "coverage")
	for m := 0; m <= 5; m++ {
		res := fam.Experiment(m)
		t3.Add(m, res.Served, res.Bound, fmt.Sprintf("%d/%d", res.Served, res.K))
	}
	t3.Note = "the target node's view is constant across chord positions: < log k bits must fail"
	return []*report.Table{t1, t2, t3}
}

// TopoBench measures the topology-recognition problem end to end, one
// row per (family, scheme) at the sweep size plus a beacon-radius sweep
// on the random family at the large size. Kind "topo"; the Verified
// column on the family rows certifies sync/async parity (verified class
// at every node, identical outputs, pulse count equal to the sync round
// count), so the committed baseline gates correctness alongside wall
// time. Sizes come from the config; nil means n = 256 for the family
// sweep and n = 1024 for the radius sweep.
func TopoBench(c Config) []BenchResult {
	famN, radN := 256, 1024
	if c.Sizes != nil {
		famN = c.Sizes[0]
		radN = c.Sizes[len(c.Sizes)-1]
	}
	var out []BenchResult
	for _, fam := range c.allFamilies() {
		out = append(out, topoRow(c, fam, famN, topo.Flood{}, true))
	}
	for _, r := range []int{0, 2, 8} {
		out = append(out, topoRow(c, "random", radN, topo.Flood{Radius: r}, false))
	}
	return out
}

// topoRow runs one measured sync execution and, when asyncParity is set,
// an async reference run whose agreement feeds the Verified column.
func topoRow(c Config, fam string, n int, s topo.Flood, asyncParity bool) BenchResult {
	g := c.graph(fam, n, int64(n)+59)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := mustRun(s, g, 0, sim.Options{Workers: 1})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	verified := res.Verified && res.Problem == topo.Name
	if asyncParity {
		asyncRes := mustRun(s, g, 0, sim.Options{
			Async:   true,
			Workers: 1,
			Latency: sim.UniformLatency{Seed: c.Seed + 41, Min: 1, Max: 8},
		})
		verified = verified && asyncRes.Verified &&
			asyncRes.Pulses == res.Rounds &&
			reflect.DeepEqual(asyncRes.ParentPorts, res.ParentPorts)
	}
	return BenchResult{
		Kind:       "topo",
		Scheme:     s.Name(),
		Family:     fam,
		N:          g.N(),
		M:          g.M(),
		Workers:    1,
		Rounds:     res.Rounds,
		Messages:   res.Messages,
		MsgBits:    res.MsgBits,
		WallNS:     wall.Nanoseconds(),
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Verified:   verified,
	}
}
