package experiments

import (
	"fmt"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/hier"
	"mstadvice/internal/report"
	"mstadvice/internal/sim"
	"mstadvice/internal/store"
)

// hierDecodeMaxN caps the per-level decoder runs: above it the
// message-level simulation is run once per (family, n) — the decoder's
// schedule is level-oblivious (exactly ⌈log n⌉+1 rounds at every level,
// pinned by TestHierAllFamilies), so its rounds and verdict hold for
// every level row.
const hierDecodeMaxN = 65_536

// hierLevels returns the level sweep for a decomposition's tower,
// whose levels are 1..TotalPhases-1: powers of two plus the coarsest
// level.
func hierLevels(d *boruvka.Decomposition) []int {
	coarsest := d.TotalPhases - 1
	var levels []int
	for l := 1; l < coarsest; l *= 2 {
		levels = append(levels, l)
	}
	if coarsest >= 1 && (len(levels) == 0 || levels[len(levels)-1] != coarsest) {
		levels = append(levels, coarsest)
	}
	return levels
}

// hierRow is one tower level of the frontier at a (family, n): the
// coarse instance's node count, the total mst-hier-l advice bits, the
// tier's marginal snapshot cost (the version-3 blob with exactly that
// tier minus the same blob with none — coarse graph, original-edge
// hints and coarse Theorem 3 advice on the wire), the decoder's extra
// decompression rounds and whether its output was exact.
type hierRow struct {
	level      int
	coarseN    int
	adviceBits int64
	tierBytes  int64
	rounds     int
	exact      bool
}

// hierRows builds every tier of one (family, n) instance and returns
// the full flat version-2 snapshot size (the denominator of the ≤ 0.5×
// storage claim) with one row per tower level.
func hierRows(c Config, fam string, n int) (int64, []hierRow) {
	g := c.graph(fam, n, int64(n)*31+13)
	root := graph.NodeID(0)
	// The instance's one decomposition feeds the flat oracle (a Run of
	// phases 1..P+1), the tiers (its contraction maps) and every level's
	// hier advice (one Run of the levels' phases).
	d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{})
	if err != nil {
		panic(fmt.Sprintf("experiments: hier %s/%d: %v", fam, n, err))
	}
	det, err := core.Encode(d, core.DefaultCap)
	if err != nil {
		panic(fmt.Sprintf("experiments: hier %s/%d: %v", fam, n, err))
	}
	flat := &store.Snapshot{Problem: "mst", Graph: g, Root: root, Cap: core.DefaultCap, Advice: det.Advice}

	flatV2 := *flat
	flatV2.Version = 2
	flatBlob, err := store.Encode(&flatV2)
	if err != nil {
		panic(fmt.Sprintf("experiments: hier %s/%d: %v", fam, n, err))
	}
	baseBlob, err := store.Encode(flat) // version 3, no tiers
	if err != nil {
		panic(fmt.Sprintf("experiments: hier %s/%d: %v", fam, n, err))
	}

	levels := hierLevels(d)
	if len(levels) == 0 {
		return int64(len(flatBlob)), nil
	}
	// levels is ascending and within the tower, so tiers[i] and advs[i]
	// are both at levels[i].
	tiers, err := hier.BuildTiers(d, hier.HierOptions{Levels: levels})
	if err != nil {
		panic(fmt.Sprintf("experiments: hier %s/%d: %v", fam, n, err))
	}
	advs, err := hier.Encode(d, levels)
	if err != nil {
		panic(fmt.Sprintf("experiments: hier %s/%d: %v", fam, n, err))
	}

	// Shared decoder run above the per-level cap (see hierDecodeMaxN);
	// the schedule is level-oblivious, so rounds and the verdict
	// transfer to every level row.
	var sharedRounds int
	var sharedExact bool
	if n > hierDecodeMaxN {
		sharedRounds, sharedExact = hierDecode(g, d, advs[0], levels[0])
	}

	rows := make([]hierRow, 0, len(tiers))
	for i, tier := range tiers {
		var adviceBits int64
		for _, b := range advs[i] {
			adviceBits += int64(b.Len())
		}
		withTier := *flat
		withTier.Tiers = []store.Tier{tier}
		tierBlob, err := store.Encode(&withTier)
		if err != nil {
			panic(fmt.Sprintf("experiments: hier %s/%d: %v", fam, n, err))
		}
		row := hierRow{
			level:      tier.Level,
			coarseN:    tier.Graph.N(),
			adviceBits: adviceBits,
			tierBytes:  int64(len(tierBlob) - len(baseBlob)),
			rounds:     sharedRounds,
			exact:      sharedExact,
		}
		if n <= hierDecodeMaxN {
			row.rounds, row.exact = hierDecode(g, d, advs[i], tier.Level)
		}
		rows = append(rows, row)
	}
	return int64(len(flatBlob)), rows
}

// hierDecode runs the local-decompression decoder on the level's
// pre-built advice and returns its round count and whether its output
// is exact.
func hierDecode(g *graph.Graph, d *boruvka.Decomposition, adv []*bitstring.BitString, level int) (int, bool) {
	s := hier.Scheme{Level: level}
	res, err := sim.NewNetwork(g).Run(s.NewNode, adv, sim.Options{})
	if err != nil {
		panic(fmt.Sprintf("experiments: hier decode l%d: %v", level, err))
	}
	// Exact check in O(n): the decoder's outputs must equal the
	// decomposition's own parent ports (-1 at the root). That record is
	// an independent reference: the oracle's Borůvka run computed it,
	// apart from both the decoder under test and advice.VerifyOutput.
	ok := len(res.ParentPorts) == g.N()
	for u := 0; ok && u < g.N(); u++ {
		ok = res.ParentPorts[u] == d.ParentPort[u]
	}
	return res.Rounds, ok
}

// hierClaimMinN is the smallest n at which E13 enforces the storage
// claim: some tier costs at most half the flat snapshot.
const hierClaimMinN = 1024

// E13Hier reports the hierarchical advice frontier as a table: per
// family, size and level, the coarse instance's size, the advice-bit
// total against the flat scheme's, the tier's marginal snapshot bytes
// against the full flat snapshot, and the decoder's fixed extra
// decompression rounds. It panics, as the other experiments do on a
// failed check, when a level's decode is not exact, or when at
// n ≥ 1024 a family has no tier of at most 0.5× its flat snapshot. See
// EXPERIMENTS.md E13 and DESIGN.md §2.9.
func E13Hier(c Config) []*report.Table {
	t := report.New("E13 hierarchical advice: bits vs rounds vs snapshot bytes",
		"family", "n", "level", "coarse n", "advice bits", "tier bytes", "flat bytes", "tier/flat", "extra rounds", "exact MST")
	for _, fam := range c.families() {
		for _, n := range c.sizes() {
			if n < 8 {
				continue
			}
			flatBytes, rows := hierRows(c, fam, n)
			best := 1.0
			for _, r := range rows {
				if !r.exact {
					panic(fmt.Sprintf("experiments: E13 %s n=%d level %d: decode is not exact", fam, n, r.level))
				}
				ratio := float64(r.tierBytes) / float64(flatBytes)
				best = min(best, ratio)
				t.Add(fam, n, r.level, r.coarseN, r.adviceBits, r.tierBytes, flatBytes,
					fmt.Sprintf("%.3f", ratio), r.rounds, r.exact)
			}
			if n >= hierClaimMinN && best > 0.5 {
				panic(fmt.Sprintf("experiments: E13 %s n=%d: no tier at most 0.5x the flat snapshot (best %.3f)", fam, n, best))
			}
		}
	}
	return []*report.Table{t}
}
