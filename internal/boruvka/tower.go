package boruvka

import (
	"fmt"

	"mstadvice/internal/graph"
)

// Tower is the contraction tower of a decomposition run: one TowerLevel
// per executed contraction, i.e. per phase after the first. Level ℓ
// (1-based) describes the contracted multigraph at the START of phase
// ℓ+1, exactly the partition whose fragments Run visits at phase ℓ+1;
// level 0 — every node a singleton fragment — is implicit. The
// tower is what the paper's §2.2 simulation computes and the flat
// Theorem 3 codec throws away: DecomposeOpt captures it only under
// Options.KeepTower, as plain copies taken after each contraction, so
// the flat path's outputs (and therefore the flat advice bytes) are
// untouched. See DESIGN.md §2.9.
type Tower struct {
	// G is the original graph every level contracts.
	G *graph.Graph
	// Levels[ℓ-1] is level ℓ. Empty when the run merged in one phase.
	Levels []TowerLevel
}

// TowerLevel is one contracted graph of the tower, held as its node
// partition. Fragment IDs are dense and ordered by smallest original
// member node, matching the fragment IDs Run visits at Phase.
// The level keeps no edge list: its edges are the original edges whose
// endpoints FragOf places in different fragments, parallel edges and
// all.
type TowerLevel struct {
	// Phase is the 1-based phase whose start this level describes (≥ 2).
	Phase int
	// NumFrags is the number of fragments (supernodes) at this level.
	NumFrags int
	// Up maps the previous level's fragment IDs to this level's: the
	// fragment→supernode map of the contraction. For the first level the
	// previous fragments are the original nodes.
	Up []int32
	// Rep[f] is the smallest original node contained in fragment f — the
	// supernode's representative, whose graph ID names it across levels.
	Rep []int32
}

// NumLevels returns the number of contraction levels (TotalPhases-1 on
// a full run).
func (t *Tower) NumLevels() int { return len(t.Levels) }

// Level returns level ℓ (1-based).
func (t *Tower) Level(l int) *TowerLevel {
	if l < 1 || l > len(t.Levels) {
		panic(fmt.Sprintf("boruvka: tower level %d out of range [1,%d]", l, len(t.Levels)))
	}
	return &t.Levels[l-1]
}

// FragOf composes the Up maps down to the original nodes: the returned
// slice maps every original node to its fragment ID at level l. l = 0
// yields the identity (singleton fragments).
func (t *Tower) FragOf(l int) []int32 {
	n := t.G.N()
	cur := make([]int32, n)
	for u := range cur {
		cur[u] = int32(u)
	}
	if l == 0 {
		return cur
	}
	if l < 1 || l > len(t.Levels) {
		panic(fmt.Sprintf("boruvka: tower level %d out of range [0,%d]", l, len(t.Levels)))
	}
	for _, lev := range t.Levels[:l] {
		for u := range cur {
			cur[u] = lev.Up[cur[u]]
		}
	}
	return cur
}
