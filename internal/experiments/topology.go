package experiments

import (
	"fmt"
	"reflect"

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
