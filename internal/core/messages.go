package core

import (
	"mstadvice/internal/convergecast"
	"mstadvice/internal/sim"
)

// Message ownership. Core messages travel as pointers, so sending one
// boxes nothing. Record batches are convergecast.Batch values, owned as
// that package describes. Setup and broadcast messages are never
// rewritten after they are sent, so one broadcast is relayed down the
// whole fragment tree unchanged.

// idMsg is the setup-round introduction: the sender's identifier and the
// far-side port of the connecting edge (needed to evaluate the intrinsic
// global edge order locally).
type idMsg struct {
	ID   int64
	Port int
}

func (*idMsg) SizeBits(cm sim.CostModel) int { return cm.IDBits + cm.PortBits }

// announceMsg tells the receiver "you are my parent in the current
// fragment tree"; sent at slot 0 of every window so parents learn their
// children afresh after merges.
type announceMsg struct{}

func (announceMsg) SizeBits(sim.CostModel) int { return 1 }

// phaseCharge prices a phase window's record batch. A record carries
// the node's identifier, child count and unconsumed packed advice, and
// its parent adds its own identifier (see convergecast.Rec). Receivers
// read at most Cap packed bits.
func phaseCharge(cm sim.CostModel, recs []convergecast.Rec) int {
	return len(recs) * recBits(cm)
}

// finalCharge prices a final-collect record batch, whose receivers read
// one advice bit per record.
func finalCharge(cm sim.CostModel, recs []convergecast.Rec) int {
	return len(recs) * finalRecBits(cm)
}

func recBits(cm sim.CostModel) int {
	// id + parent id + child count (≈port width) + ≤Cap advice bits
	// with a 4-bit length.
	return 2*cm.IDBits + cm.PortBits + DefaultCap + 4
}

// finalRecBits is a final-collect record's charge: the same two
// identifiers, but a single advice bit and no child count.
func finalRecBits(cm sim.CostModel) int {
	return 2*cm.IDBits + 1
}

// consEntry tells one node how many of its streamed bits the root consumed
// while decoding A(F).
type consEntry struct {
	ID    int64
	Count int
}

// bcastMsg is the fragment root's phase broadcast: the decoded A(F)
// content plus the per-node consumption update. It doubles as the sender's
// level report for the receiving (child) edge.
type bcastMsg struct {
	Up        bool
	Level     int
	ChooserID int64
	Cons      []consEntry
}

func (m *bcastMsg) SizeBits(cm sim.CostModel) int {
	return 2 + cm.IDBits + len(m.Cons)*(cm.IDBits+4)
}

// levelMsg reports the sender's fragment level (this phase) to a
// neighbour outside its fragment-tree children.
type levelMsg struct {
	Level int
}

func (levelMsg) SizeBits(sim.CostModel) int { return 2 }

// adoptMsg tells the receiver that the sender is its parent in T (sent
// across the selected edge when it is "down" from the chooser).
type adoptMsg struct{}

func (adoptMsg) SizeBits(sim.CostModel) int { return 1 }
