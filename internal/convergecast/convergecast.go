// Package convergecast is the relay-only convergecast that both MST
// decoders run over their fragment trees: the Theorem 3 decoder
// (internal/core) in every phase window and in its final collect, and
// the local-decompression decoder (internal/hier) once. Every node sends
// its own record to its fragment parent (Open), then, in each later
// round, forwards the record batches that arrived that round (Step).
// Depth-d records arrive exactly d rounds after the own records were
// sent, so a round's batches, ordered by the (weight, port) of the child
// edge each came on and concatenated, are precisely the next level of
// the node's BFS order. A relay forwards at most limit records and keeps
// none; a fragment root keeps the first limit records of its fragment's
// BFS order (Held) and nothing else, so a node's memory is O(deg +
// limit) however large its subtree. See DESIGN.md §2.3.
//
// The package prices nothing: each decoder hands its batches their
// charge (see Charge).
package convergecast

import (
	"cmp"
	"slices"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/sim"
)

// Message ownership. A batch travels as a pointer into one of its
// sender's two alternating buffers and stays valid until the sender's
// next-but-one send: the round engine delivers a batch in the round
// after it was sent, and the α-synchronizer buffers at most one pulse
// ahead, both inside that window. A receiver reads a batch within the
// round it arrives in, copying the records into its own outgoing batch
// or, at a fragment root, into its collection.

// Rec is one node's convergecast record: exactly what a fragment root
// reads. The node itself fills every field, ParentID with its fragment
// parent's identifier, learned in its decoder's identifier exchange;
// relays copy records unchanged. Bits is the node's whole advice
// string, shared by reference, and Off is where the part its decoder
// reads starts. ChildCount is -1 when the decoder announces no
// children.
type Rec struct {
	ID         int64
	ParentID   int64
	Bits       *bitstring.BitString
	Off        int32
	ChildCount int32
}

// Charge returns the bits a batch of records costs under cm. Each
// decoder prices its own records and hands its Charge to Open and Step,
// which set it on every batch they fill.
type Charge func(cm sim.CostModel, recs []Rec) int

// Batch is one message of records up the fragment tree, priced by the
// Charge its sender filled it with.
type Batch struct {
	Recs   []Rec
	Charge Charge
}

// SizeBits implements sim.Message.
func (b *Batch) SizeBits(cm sim.CostModel) int { return b.Charge(cm, b.Recs) }

// arrival is one batch delivered this round and the port it came on.
type arrival struct {
	port int
	b    *Batch
}

// Stream is one node's convergecast state. parent is always the
// caller's current fragment parent port, -1 at a fragment root.
type Stream struct {
	// sent counts the records a relay has counted against its limit;
	// arrived are the batches delivered since the last Step.
	sent    int
	arrived []arrival

	// bufs are the two alternating outgoing batches; a fragment root
	// sends no records, so the one due next holds its collection
	// instead (see Held).
	bufs [2]Batch
	flip int
}

// Reset drops the collection, the count against the limit and any
// batch not yet stepped, before a new convergecast.
func (s *Stream) Reset() {
	s.bufs[s.flip].Recs = s.Held()[:0]
	s.sent = 0
	s.arrived = s.arrived[:0]
}

// Open starts a convergecast once the node's children are known, with
// its own record, which names its parent's identifier (a fragment root's
// is never read): a fragment root holds the record, any other node
// sends it to its parent, priced by charge. The caller opens at slot 1
// and steps at the slots after it.
func (s *Stream) Open(own Rec, parent int, charge Charge, sends []sim.Send) []sim.Send {
	b := s.next(1, charge)
	b.Recs = append(b.Recs, own)
	if parent == -1 {
		s.sent = 0
		return sends
	}
	s.sent = 1
	return s.flush(b, parent, sends)
}

// Arrive notes a batch delivered on port p this round.
func (s *Stream) Arrive(p int, b *Batch) {
	s.arrived = append(s.arrived, arrival{p, b})
}

// Step runs the convergecast's slot numbered slot (Open ran slot 1)
// with prefix cut limit on the batches that arrived this round. A
// fragment root holds their records, up to limit in all; any other node
// forwards them within its limit, priced by charge, and keeps nothing.
// A record forwarded at slot s is s hops from its owner, so past slot
// limit it lies deeper than any root's first limit records reach: a
// relay counts such a record against its limit but forwards none. That
// slot cut and the own-identifier drop bound the streams that a cycle
// of corrupted parent pointers could otherwise keep alive.
func (s *Stream) Step(parent, slot, limit int, charge Charge, view *sim.NodeView, sends []sim.Send) []sim.Send {
	arrived := s.arrived
	s.arrived = s.arrived[:0]
	if len(arrived) == 0 {
		return sends
	}
	slices.SortFunc(arrived, func(a, b arrival) int {
		return cmp.Or(cmp.Compare(view.PortW[a.port], view.PortW[b.port]), cmp.Compare(a.port, b.port))
	})
	if parent == -1 {
		for _, a := range arrived {
			for _, r := range a.b.Recs {
				s.hold(r, limit)
			}
		}
		return sends
	}
	if s.sent >= limit {
		return sends
	}
	total := 0
	for _, a := range arrived {
		total += len(a.b.Recs)
	}
	b := s.next(min(limit-s.sent, total), charge)
	for _, a := range arrived {
		for _, r := range a.b.Recs {
			if s.sent == limit {
				break
			}
			if r.ID == view.ID {
				continue
			}
			s.sent++
			if slot <= limit {
				b.Recs = append(b.Recs, r)
			}
		}
	}
	return s.flush(b, parent, sends)
}

// Held is a fragment root's collection: the first records of its BFS
// order, its own first. It lives in the buffer due next, which a root
// never sends, so serving as a root costs no memory of its own.
func (s *Stream) Held() []Rec { return s.bufs[s.flip].Recs }

// hold adds a record to a fragment root's collection, which keeps the
// first limit records of the BFS order; a repeat of a held record is
// ignored.
func (s *Stream) hold(r Rec, limit int) {
	b := &s.bufs[s.flip]
	if len(b.Recs) >= limit {
		return
	}
	for k := range b.Recs {
		if b.Recs[k].ID == r.ID {
			return
		}
	}
	b.Recs = append(b.Recs, r)
}

// next returns the emptied one of the two alternating buffers with room
// for size records, priced by charge. The batch sent in round r is read
// by the receiver in round r+1, while this node is already filling the
// other buffer, and is free again by round r+2.
func (s *Stream) next(size int, charge Charge) *Batch {
	b := &s.bufs[s.flip]
	b.Recs = slices.Grow(b.Recs[:0], size)
	b.Charge = charge
	return b
}

// flush sends a filled batch to the parent, unless it is empty.
func (s *Stream) flush(b *Batch, parent int, sends []sim.Send) []sim.Send {
	if len(b.Recs) == 0 {
		return sends
	}
	s.flip ^= 1
	return append(sends, sim.Send{Port: parent, Msg: b})
}

// Whole reports whether recs are a whole fragment tree in BFS order:
// after the root's own record they fall into consecutive runs, one per
// record in turn, each as long as that record's announced child count
// and naming it as parent. A record whose parent is missing or out of
// place breaks a run, so it counts toward the size and marks the
// fragment incomplete.
func Whole(recs []Rec) bool {
	next := 1
	for i, t := range recs {
		c := int(t.ChildCount)
		if i >= next || c < 0 || next+c > len(recs) {
			return false
		}
		for _, k := range recs[next : next+c] {
			if k.ParentID != t.ID {
				return false
			}
		}
		next += c
	}
	return true
}

// Linked reports whether recs are a BFS prefix of a tree: each record
// after the first names an earlier one as its parent, in nondecreasing
// position. It is all a root can check of records that carry no child
// counts.
func Linked(recs []Rec) bool {
	p := 0
	for k := 1; k < len(recs); k++ {
		for recs[p].ID != recs[k].ParentID {
			if p++; p == k {
				return false
			}
		}
	}
	return true
}
