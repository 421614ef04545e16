package core

import "mstadvice/internal/graph"

// Schedule is the deterministic round plan of the Theorem 3 decoder,
// computable by every node from n alone (nodes know n; see DESIGN.md §1).
//
// Round 1 is the ID-exchange setup round (messages sent during Start are
// delivered in round 1). Phase i, 1 ≤ i ≤ P with P = ⌈log log n⌉, occupies
// a window of Li = 2^(i+1)+2 rounds whose slots are:
//
//	slot 0            every node announces itself to its fragment parent
//	slots 1..2^i-1    streaming convergecast of advice records to the root
//	slots 2^i..2^(i+1)-1   broadcast of (A(F), consumption) + level reports
//	slot 2^(i+1)      the choosing node selects its edge and sends "adopt"
//	slot 2^(i+1)+1    adopt messages are delivered and processed
//
// The final window (slots 0..width+1, width = ⌈log n⌉) runs the
// depth-truncated collect of the final-phase bits. Every node terminates
// at round Total. The paper charges 2^(i+1) rounds per phase plus ⌈log n⌉
// for the final collect (Theorem 3's t ≤ 9⌈log n⌉); our explicit
// announce/exchange slots add the lower-order 2P+O(1) term that
// EXPERIMENTS.md reports alongside the paper bound.
type Schedule struct {
	N     int
	P     int // number of packed phases, ⌈log log n⌉
	Width int // ⌈log n⌉: bits of the final-phase fragment advice
	Cap   int // per-node budget for packed phase bits (the paper's c = 11)

	total int
}

// DefaultCap is the paper's per-node packed-advice budget c = 11 bits
// (total advice m = c + 1 = 12 with the final-phase bit).
const DefaultCap = 11

// NewSchedule computes the round plan for an n-node network.
func NewSchedule(n, cap int) Schedule {
	s := Schedule{N: n, Cap: cap}
	if n <= 1 {
		return s
	}
	s.Width = graph.CeilLog2(n)
	s.P = graph.CeilLog2(s.Width)
	s.total = phaseStart(s.P+1) + s.Width + 1
	return s
}

// phaseStart is the first round of phase i's window; i = P+1 gives the
// final window. Phase 1 starts at round 1, and windows 1..i-1 of
// 2^(k+1)+2 rounds each sum to 2^(i+1)+2i-6.
func phaseStart(i int) int { return 1<<(uint(i)+1) + 2*i - 5 }

// Total is the round at which every node terminates.
func (s *Schedule) Total() int { return s.total }

// PaperBound is the paper's round bound 9·⌈log n⌉.
func (s *Schedule) PaperBound() int { return 9 * s.Width }

// Kind classifies a round within the schedule.
type Kind int

const (
	KindSetup Kind = iota // ID exchange
	KindPhase             // inside a packed-phase window
	KindFinal             // inside the final collect window
	KindDone              // past the schedule
)

// Locate maps a round number to (kind, phase index, slot within window).
func (s *Schedule) Locate(round int) (kind Kind, phase, slot int) {
	if s.N <= 1 || round > s.total {
		return KindDone, 0, 0
	}
	if round < 1 {
		return KindSetup, 0, 0
	}
	if start := phaseStart(s.P + 1); round >= start {
		return KindFinal, s.P + 1, round - start
	}
	for i := s.P; i >= 1; i-- {
		if start := phaseStart(i); round >= start {
			return KindPhase, i, round - start
		}
	}
	return KindSetup, 0, 0
}

// ConvergeEnd is the slot at which a phase-i fragment root evaluates its
// collected tree (first slot of the broadcast stage).
func ConvergeEnd(i int) int { return 1 << uint(i) }

// ChooseSlot is the slot at which the choosing node selects its edge.
func ChooseSlot(i int) int { return 1 << (uint(i) + 1) }

// FinalDecodeSlot is the slot (within the final window) at which fragment
// roots decode the collected bits; it is also the last slot of the run.
func (s *Schedule) FinalDecodeSlot() int { return s.Width + 1 }
