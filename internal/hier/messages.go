package hier

import (
	"mstadvice/internal/convergecast"
	"mstadvice/internal/sim"
)

// helloMsg is the setup-round introduction, sent on every port: the
// sender's identifier, its port for the connecting edge (needed to
// evaluate the intrinsic global order locally), and whether the
// receiver is the sender's MST parent per the sender's advice hint —
// which, fragments being subtrees of T, tells every node its fragment
// children in one round. Hellos travel as pointers into one array per
// sender and are never rewritten.
type helloMsg struct {
	ID    int64
	Port  int
	Child bool
}

func (*helloMsg) SizeBits(cm sim.CostModel) int { return cm.IDBits + cm.PortBits + 1 }

// recordsCharge prices a batch of convergecast records. Per record: id +
// parent id + child count (≈port width) + the node's carrier bits (its
// advice from Off on) with a 5-bit length (carrier payloads are
// ≤ ⌈log n⌉ ≤ 2^5 bits at any feasible n).
func recordsCharge(cm sim.CostModel, recs []convergecast.Rec) int {
	total := 0
	for i := range recs {
		total += 2*cm.IDBits + cm.PortBits + 5 + recs[i].Bits.Len() - int(recs[i].Off)
	}
	return total
}
