package core

import (
	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

// Message ownership. Core messages travel as pointers, so sending one
// boxes nothing. A record batch points into one of its sender's two
// alternating buffers and stays valid until the sender's next-but-one
// send: the round engine delivers a batch in the round after it was sent,
// and the α-synchronizer buffers at most one pulse ahead, both inside that
// window. A receiver reads a batch within the round it arrives in,
// copying the records into its own outgoing batch or, at a fragment root,
// into its collection. Setup and broadcast messages are never rewritten
// after they are sent, so one broadcast is relayed down the whole
// fragment tree unchanged.

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

// rec is one node's convergecast record. The node itself fills ID,
// ChildCount, Bits and Off; its fragment parent fills ParentID, W and
// PortAtParent when first relaying (it alone knows the connecting edge's
// local coordinates), and every relay raises Hop. Bits is the node's
// whole advice string, shared by reference. In a phase window receivers
// read only its unconsumed packed bits Bits[Off:], at most Cap of them;
// in the final collect ChildCount is -1 and the root reads only bit 0,
// the final-stage bit.
type rec struct {
	ID           int64
	ParentID     int64
	W            graph.Weight
	Bits         *bitstring.BitString
	Off          int32
	PortAtParent int32
	ChildCount   int32
	Hop          int32
}

func recBits(cm sim.CostModel) int {
	// id + parent id + weight + port + child count (≈port width) + hop
	// (≈id width) + ≤Cap advice bits with a 4-bit length.
	return 3*cm.IDBits + cm.WeightBits + 2*cm.PortBits + DefaultCap + 4
}

// finalRecBits is a final-collect record's charge: the same tree
// coordinates, but a single advice bit and no child count.
func finalRecBits(cm sim.CostModel) int {
	return 3*cm.IDBits + cm.WeightBits + 2*cm.PortBits + 1
}

// recMsg batches convergecast records up the fragment tree. Final marks
// a batch of the final collect, whose records are charged finalRecBits.
type recMsg struct {
	Recs  []rec
	Final bool
}

func (m *recMsg) SizeBits(cm sim.CostModel) int {
	if m.Final {
		return len(m.Recs) * finalRecBits(cm)
	}
	return len(m.Recs) * recBits(cm)
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
