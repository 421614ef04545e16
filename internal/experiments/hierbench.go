package experiments

import (
	"fmt"
	"time"

	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/hier"
	"mstadvice/internal/report"
	"mstadvice/internal/sim"
	"mstadvice/internal/store"
)

// hierSizes is the default n sweep of the hierarchical-advice frontier:
// a table-sized instance, a mid-size one, and the paper-scale 10⁶ row
// the storage claim is made at.
func hierSizes(c Config) []int {
	if c.Sizes != nil {
		return c.Sizes
	}
	return []int{1024, 65_536, 1_000_000}
}

// hierDecodeMaxN caps the per-level decoder runs: above it the
// message-level simulation is run once per (family, n) — the decoder's
// schedule is level-oblivious (exactly ⌈log n⌉+1 rounds at every level,
// pinned by TestHierAllFamilies), so the shared measurement stays
// honest — and the per-level rows carry the tier-build cost instead.
const hierDecodeMaxN = 65_536

// hierLevels returns the level sweep for a tower: powers of two plus
// the coarsest level.
func hierLevels(tw *boruvka.Tower) []int {
	var levels []int
	for l := 1; l < tw.NumLevels(); l *= 2 {
		levels = append(levels, l)
	}
	if n := tw.NumLevels(); n >= 1 && (len(levels) == 0 || levels[len(levels)-1] != n) {
		levels = append(levels, n)
	}
	return levels
}

// HierBench measures the bits-vs-rounds frontier of the hierarchical
// advice subsystem (kind "hier"): per family and size, one row per
// tower level with
//
//   - AdviceBits: total mst-hier-l advice bits at that level (the
//     per-node budget axis of the frontier),
//   - Bytes: the marginal snapshot cost of the level's tier — the
//     version-3 blob with exactly that tier minus the same blob with
//     none, i.e. coarse graph + original-edge hints + coarse Theorem 3
//     advice on the wire,
//   - Rounds: the measured extra decompression rounds the level-
//     oblivious decoder pays (⌈log n⌉+1, identical at every level),
//   - WallNS/Allocs: tier build + encode cost (per-level decode stats
//     replace them up to hierDecodeMaxN),
//
// plus one flat reference row per (family, n) ("flat-v2") whose Bytes
// is the full flat version-2 snapshot — the denominator of the ≤ 0.5×
// storage claim the committed BENCH_hier.json carries at n = 10⁶.
func HierBench(c Config) []BenchResult {
	var rows []BenchResult
	for _, fam := range c.families() {
		for _, n := range hierSizes(c) {
			rows = append(rows, hierRows(c, fam, n)...)
		}
	}
	return rows
}

func hierRows(c Config, fam string, n int) []BenchResult {
	g := c.graph(fam, n, int64(n)*31+13)
	root := graph.NodeID(0)
	d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{KeepTower: true})
	if err != nil {
		panic(fmt.Sprintf("experiments: hier bench %s/%d: %v", fam, n, err))
	}
	flatAdvice, err := core.BuildAdvice(g, root, core.DefaultCap)
	if err != nil {
		panic(fmt.Sprintf("experiments: hier bench %s/%d: %v", fam, n, err))
	}
	flat := &store.Snapshot{Problem: "mst", Graph: g, Root: root, Cap: core.DefaultCap, Advice: flatAdvice}

	flatV2 := *flat
	flatV2.Version = 2
	flatBlob, err := store.Encode(&flatV2)
	if err != nil {
		panic(fmt.Sprintf("experiments: hier bench %s/%d: %v", fam, n, err))
	}
	baseBlob, err := store.Encode(flat) // version 3, no tiers
	if err != nil {
		panic(fmt.Sprintf("experiments: hier bench %s/%d: %v", fam, n, err))
	}

	rows := []BenchResult{{
		Kind: "hier", Scheme: "flat-v2", Family: fam, N: n, M: g.M(), Workers: 1,
		Bytes: int64(len(flatBlob)), Verified: true,
	}}

	levels := hierLevels(d.Tower)
	if len(levels) == 0 {
		return rows
	}
	// One decomposition builds every tier.
	buildStart := time.Now()
	tiers, err := hier.BuildTiers(g, root, hier.HierOptions{Levels: levels})
	if err != nil {
		panic(fmt.Sprintf("experiments: hier bench %s/%d: %v", fam, n, err))
	}
	buildNS := time.Since(buildStart).Nanoseconds() / int64(len(tiers))

	// Shared decoder measurement above the per-level cap (see
	// hierDecodeMaxN); the schedule is level-oblivious, so rounds and
	// the verdict transfer to every level row.
	var sharedRounds int
	var sharedVerified bool
	if n > hierDecodeMaxN {
		res := hierDecode(g, d, root, levels[0])
		sharedRounds, sharedVerified = res.Rounds, res.Verified
	}

	for _, tier := range tiers {
		adv, err := hier.Encode(d, tier.Level, 0)
		if err != nil {
			panic(fmt.Sprintf("experiments: hier bench %s/%d: %v", fam, n, err))
		}
		var adviceBits int64
		for _, b := range adv {
			adviceBits += int64(b.Len())
		}
		withTier := *flat
		withTier.Tiers = []store.Tier{tier}
		tierBlob, err := store.Encode(&withTier)
		if err != nil {
			panic(fmt.Sprintf("experiments: hier bench %s/%d: %v", fam, n, err))
		}
		row := BenchResult{
			Kind:   "hier",
			Scheme: fmt.Sprintf("mst-hier-l%d", tier.Level),
			Family: fam, N: n, M: g.M(), Workers: 1,
			CoarseN:    tier.Graph.N(),
			AdviceBits: adviceBits,
			Bytes:      int64(len(tierBlob) - len(baseBlob)),
			WallNS:     buildNS,
		}
		if n > hierDecodeMaxN {
			row.Rounds, row.Verified = sharedRounds, sharedVerified
		} else {
			res := hierDecode(g, d, root, tier.Level)
			row.Rounds, row.Verified = res.Rounds, res.Verified
			row.Messages, row.MsgBits = res.Messages, res.MsgBits
			row.WallNS = res.WallNS
		}
		rows = append(rows, row)
	}
	return rows
}

// hierDecodeResult is one measured run of the local-decompression
// decoder on pre-built advice.
type hierDecodeResult struct {
	Rounds   int
	Messages int64
	MsgBits  int64
	WallNS   int64
	Verified bool
}

func hierDecode(g *graph.Graph, d *boruvka.Decomposition, root graph.NodeID, level int) hierDecodeResult {
	adv, err := hier.Encode(d, level, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: hier decode l%d: %v", level, err))
	}
	s := hier.Scheme{Level: level}
	start := time.Now()
	res, err := sim.NewNetwork(g).Run(s.NewNode, adv, sim.Options{})
	if err != nil {
		panic(fmt.Sprintf("experiments: hier decode l%d: %v", level, err))
	}
	wall := time.Since(start).Nanoseconds()
	// Exact check in O(n): the decoder's outputs must equal the
	// decomposition's own parent ports (-1 at the root). The generic
	// advice.VerifyOutput walks parent chains and is quadratic on paths,
	// which at n = 10⁶ would dwarf the measurement itself.
	ok := len(res.ParentPorts) == g.N()
	for u := 0; ok && u < g.N(); u++ {
		ok = res.ParentPorts[u] == d.ParentPort[u]
	}
	return hierDecodeResult{
		Rounds:   res.Rounds,
		Messages: res.Messages,
		MsgBits:  res.TotalBits,
		WallNS:   wall,
		Verified: ok,
	}
}

// E13Hier reports the hierarchical advice frontier as a table: per
// family, size and level, the coarse instance's size, the advice-bit
// total against the flat scheme's, the tier's marginal snapshot bytes
// against the full flat snapshot, and the decoder's fixed extra
// decompression rounds. See EXPERIMENTS.md E13 and DESIGN.md §2.9.
func E13Hier(c Config) []*report.Table {
	t := report.New("E13 hierarchical advice: bits vs rounds vs snapshot bytes",
		"family", "n", "level", "coarse n", "advice bits", "tier bytes", "flat bytes", "tier/flat", "extra rounds", "exact MST")
	for _, fam := range c.families() {
		for _, n := range c.sizes() {
			if n < 8 {
				continue
			}
			var flatBytes int64
			var rows []BenchResult
			for _, r := range hierRows(c, fam, n) {
				if r.Scheme == "flat-v2" {
					flatBytes = r.Bytes
				} else {
					rows = append(rows, r)
				}
			}
			for _, r := range rows {
				level := 0
				fmt.Sscanf(r.Scheme, "mst-hier-l%d", &level)
				t.Add(fam, n, level, r.CoarseN, r.AdviceBits, r.Bytes, flatBytes,
					fmt.Sprintf("%.3f", float64(r.Bytes)/float64(flatBytes)),
					r.Rounds, r.Verified)
			}
		}
	}
	return []*report.Table{t}
}
