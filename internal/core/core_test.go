package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/convergecast"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/sim"
)

// seeded builds the named seeded family, failing the test on an error.
func seeded(tb testing.TB, family string, n int, seed uint64, w gen.WeightMode) *graph.Graph {
	tb.Helper()
	g, err := gen.BuildSeeded(family, n, seed, gen.SeededOptions{Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func runScheme(t *testing.T, g *graph.Graph, root graph.NodeID) *advice.Result {
	t.Helper()
	res, err := advice.Run(Scheme{}, g, root, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The headline correctness test: exact rooted MST on every family, size
// and weight mode, with every node holding at most 12 bits of advice and
// the run finishing within the fixed O(log n) schedule.
func TestTheorem3AcrossFamilies(t *testing.T) {
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 21, 33, 64, 100} {
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				rng := rand.New(rand.NewSource(int64(n)*17 + int64(mode)*7919))
				g := seeded(t, fam, n, uint64(int64(n)*17+int64(mode)*7919), mode)
				root := graph.NodeID(rng.Intn(g.N()))
				res, err := advice.Run(Scheme{}, g, root, sim.Options{})
				if err != nil {
					t.Fatalf("%s/%s n=%d root=%d: %v", fam, mode, n, root, err)
				}
				if !res.Verified {
					t.Fatalf("%s/%s n=%d root=%d: not the MST: %v", fam, mode, n, root, res.VerifyErr)
				}
				if res.Root != root {
					t.Fatalf("%s/%s n=%d: root %d, want %d", fam, mode, n, res.Root, root)
				}
				if res.Advice.MaxBits > 12 {
					t.Fatalf("%s/%s n=%d: max advice %d bits > 12", fam, mode, n, res.Advice.MaxBits)
				}
				exact, _ := RoundBound(g.N())
				if res.Rounds != exact {
					t.Fatalf("%s/%s n=%d: %d rounds, schedule says %d", fam, mode, n, res.Rounds, exact)
				}
			}
		}
	}
}

// All roots of one fixed graph: orientation handling must be root-agnostic.
func TestAllRoots(t *testing.T) {
	g := seeded(t, "random", 24, 2, gen.WeightsDistinct)
	for root := 0; root < g.N(); root++ {
		res := runScheme(t, g, graph.NodeID(root))
		if !res.Verified || res.Root != graph.NodeID(root) {
			t.Fatalf("root %d: verified=%v got root %d (%v)", root, res.Verified, res.Root, res.VerifyErr)
		}
	}
}

// The schedule's exact round count stays within ~9·⌈log n⌉ plus the
// explicit lower-order bookkeeping term (see DESIGN.md §2.2).
func TestRoundBoundShape(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64, 256, 1024, 4096, 1 << 16, 1 << 20} {
		exact, paper := RoundBound(n)
		s := NewSchedule(n, DefaultCap)
		slack := 2*s.P + 6
		if exact > paper+slack {
			t.Fatalf("n=%d: exact bound %d > paper %d + slack %d", n, exact, paper, slack)
		}
		if n >= 16 && exact < s.Width {
			t.Fatalf("n=%d: bound %d below a single log n", n, exact)
		}
	}
}

// Rounds grow logarithmically: doubling n many times must only add O(1)
// windows.
func TestLogarithmicScaling(t *testing.T) {
	r64, _ := RoundBound(64)
	r4096, _ := RoundBound(4096)
	if r4096 > 2*r64+20 {
		t.Fatalf("rounds scale super-logarithmically: %d @64 vs %d @4096", r64, r4096)
	}
}

// Advice size distribution: max <= 12 for all tested inputs and the
// average is far below the max (most nodes hold only the final bit + a
// few packed bits).
func TestAdviceProfile(t *testing.T) {
	g := seeded(t, "random", 300, 7, gen.WeightsDistinct)
	assignment, err := BuildAdvice(g, 0, DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	stats := advice.Measure(assignment, g.N())
	if stats.MaxBits > 12 {
		t.Fatalf("max advice %d > 12", stats.MaxBits)
	}
	if stats.AvgBits < 1 {
		t.Fatal("every node must hold at least its final bit")
	}
	if stats.AvgBits > 6 {
		t.Fatalf("average advice %.2f suspiciously high", stats.AvgBits)
	}
}

// CONGEST profile: messages carry O(log n) records of O(log n) bits; on
// bounded-degree graphs the maximum message stays polylogarithmic. We
// check the documented envelope rather than a loose asymptotic claim.
func TestMessageEnvelope(t *testing.T) {
	for _, n := range []int{64, 256} {
		g := seeded(t, "grid", n/8*8, uint64(int64(n)), gen.WeightsDistinct)
		res := runScheme(t, g, 0)
		cm := sim.NewCostModel(g)
		s := NewSchedule(g.N(), DefaultCap)
		perRec := 3*cm.IDBits + cm.WeightBits + 2*cm.PortBits + DefaultCap + 4
		maxRecs := 2 * s.Width // quota at the deepest packed phase is 2^P < 2·width
		consBits := 2 + cm.IDBits + (s.Width+2)*(cm.IDBits+4)
		envelope := maxRecs * perRec
		if consBits > envelope {
			envelope = consBits
		}
		if res.MaxMsgBits > envelope {
			t.Fatalf("n=%d: max message %d bits > envelope %d", g.N(), res.MaxMsgBits, envelope)
		}
	}
}

// The ablation hook: tiny caps must fail loudly in the oracle (Claim 1
// violated), never silently mis-decode.
func TestCapAblation(t *testing.T) {
	g := seeded(t, "random", 128, 9, gen.WeightsDistinct)
	okCap := 0
	for cap := 1; cap <= DefaultCap; cap++ {
		_, err := BuildAdvice(g, 0, cap)
		if err == nil {
			okCap = cap
			break
		}
	}
	if okCap == 0 {
		t.Fatal("no cap up to 11 admitted a packing")
	}
	// Whatever the empirical minimum, the scheme must still decode with it.
	res, err := advice.Run(Scheme{Cap: okCap}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("cap %d: decode failed: %v", okCap, res.VerifyErr)
	}
	if okCap > DefaultCap {
		t.Fatalf("empirical minimum cap %d exceeds the paper's 11", okCap)
	}
}

// TestSharedScheduleConcurrent: decodes of different sizes running at
// once share no schedule but their own n's, so each still takes exactly
// its schedule's rounds to the exact MST.
func TestSharedScheduleConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for _, n := range []int{30, 31, 64, 100} {
		g := seeded(t, "random", n, 9, gen.WeightsDistinct)
		exact, _ := RoundBound(n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				res, err := advice.Run(Scheme{}, g, 0, sim.Options{})
				if err != nil {
					t.Errorf("n=%d: %v", n, err)
					return
				}
				if !res.Verified || res.Rounds != exact {
					t.Errorf("n=%d: verified %v, %d rounds, schedule says %d", n, res.Verified, res.Rounds, exact)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Determinism including under parallel engine execution.
func TestDeterminism(t *testing.T) {
	mk := func() *graph.Graph {
		return seeded(t, "random", 60, 4, gen.WeightsUnit)
	}
	a, err := advice.Run(Scheme{}, mk(), 3, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := advice.Run(Scheme{}, mk(), 3, sim.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.TotalBits != b.TotalBits {
		t.Fatalf("divergence: %+v vs %+v", a, b)
	}
	for u := range a.ParentPorts {
		if a.ParentPorts[u] != b.ParentPorts[u] {
			t.Fatalf("outputs differ at node %d", u)
		}
	}
}

// Corrupting a single advice bit must never yield a verified wrong tree.
func TestCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := seeded(t, "random", 40, 10, gen.WeightsDistinct)
	for trial := 0; trial < 10; trial++ {
		assignment, err := BuildAdvice(g, 0, DefaultCap)
		if err != nil {
			t.Fatal(err)
		}
		u := rng.Intn(g.N())
		if assignment[u].Len() == 0 {
			continue
		}
		flipped := assignment[u].Clone()
		k := rng.Intn(flipped.Len())
		flipped.SetBit(k, !flipped.Bit(k))
		assignment[u] = flipped
		nw := sim.NewNetwork(g)
		res, err := nw.Run(Scheme{}.NewNode, assignment, sim.Options{})
		if err != nil {
			continue // decoder detected the corruption by panicking
		}
		if v := advice.VerifyOutput(g, res.ParentPorts); v.Verified && v.Root != 0 {
			t.Fatalf("trial %d: corrupted advice produced a verified tree with the wrong root", trial)
		}
		// ok with root==0 can only happen if the flipped bit was redundant
		// for this instance (e.g. an unread padding bit); that is fine.
	}
}

// Swapping two nodes' advice strings is a stronger corruption than a bit
// flip (both strings are individually well-formed); it must never verify
// as the MST rooted elsewhere.
func TestAdviceSwapDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := seeded(t, "random", 40, 14, gen.WeightsDistinct)
	for trial := 0; trial < 10; trial++ {
		assignment, err := BuildAdvice(g, 0, DefaultCap)
		if err != nil {
			t.Fatal(err)
		}
		a, b := rng.Intn(g.N()), rng.Intn(g.N())
		if a == b || assignment[a].Equal(assignment[b]) {
			continue
		}
		assignment[a], assignment[b] = assignment[b], assignment[a]
		nw := sim.NewNetwork(g)
		res, err := nw.Run(Scheme{}.NewNode, assignment, sim.Options{})
		if err != nil {
			continue // detected by a decoder panic
		}
		if v := advice.VerifyOutput(g, res.ParentPorts); v.Verified && v.Root != 0 {
			t.Fatalf("trial %d: swapped advice verified with wrong root", trial)
		}
	}
}

// withID returns a copy of g in which node u has identifier id.
func withID(t *testing.T, g *graph.Graph, u graph.NodeID, id int64) *graph.Graph {
	t.Helper()
	ids := slices.Clone(g.IDs())
	ids[u] = id
	h, err := graph.FromEdgeList(g.N(), ids, slices.Clone(g.Edges()), 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestExtremeIdentifiers: identifiers are any distinct int64s, so both
// decoders give the exact MST when one node, in turn at four places,
// has identifier −2⁶², math.MinInt64 or math.MaxInt64. Records name
// their parent by identifier, filled in by their owner; when the first
// relay filled it in instead, −2⁶² was the in-band "not yet filled"
// marker, and a relay with that identifier corrupted its children's
// records two hops up.
func TestExtremeIdentifiers(t *testing.T) {
	for _, fam := range []string{"random", "grid", "path", "tree", "expander"} {
		for _, n := range []int{64, 300} {
			g := seeded(t, fam, n, 11, gen.WeightsRandom)
			for _, id := range []int64{-1 << 62, math.MinInt64, math.MaxInt64} {
				for k := range 4 {
					u := graph.NodeID(1 + k*(g.N()-1)/4)
					h := withID(t, g, u, id)
					for _, s := range []Scheme{{}, {Adaptive: true}} {
						res, err := advice.Run(s, h, 0, sim.Options{})
						if err != nil {
							t.Fatalf("%s %s n=%d, node %d has id %d: %v", s.Name(), fam, n, u, id, err)
						}
						if !res.Verified {
							t.Fatalf("%s %s n=%d, node %d has id %d: %v", s.Name(), fam, n, u, id, res.VerifyErr)
						}
					}
				}
			}
		}
	}
}

// Fault injection: lost messages must never produce a silently wrong
// verified answer — the run either fails in the engine (panic/timeout) or
// fails verification. Every k-th edge goes down from round 1 (the ID
// exchange) or from round 5 (inside phase 1's window); the windowed rows
// below lose one round inside each later window.
func TestMessageLossNeverSilentlyWrong(t *testing.T) {
	g := seeded(t, "random", 30, 15, gen.WeightsDistinct)
	assignment, err := BuildAdvice(g, 0, DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{3, 7, 20, 100} {
		for _, round := range []int{1, 5} {
			sc := &sim.Scenario{}
			for e := 0; e < g.M(); e += every {
				sc.Events = append(sc.Events, sim.ScenarioEvent{Round: round, Edge: graph.EdgeID(e), Action: sim.ActionLinkDown})
			}
			res, err := sim.NewNetwork(g).Run(Scheme{}.NewNode, assignment, sim.Options{Scenario: sc})
			if err != nil {
				continue // decoder noticed (panic) or timed out: fine
			}
			if res.LinkDropped == 0 {
				t.Fatalf("every=%d round=%d: nothing dropped", every, round)
			}
			if v := advice.VerifyOutput(g, res.ParentPorts); v.Verified && v.Root != 0 {
				t.Fatalf("every=%d round=%d: lossy run verified with wrong root", every, round)
			}
			// ok with the right root is possible when only redundant
			// messages (e.g. unused level reports) were dropped; that is
			// fine.
		}
	}
	t.Run("windowed", func(t *testing.T) {
		for _, s := range []Scheme{{}, {Adaptive: true}} {
			lossInWindows(t, g, assignment, s)
		}
	})
}

// lossInWindows downs every k-th edge for one round inside each window
// that streams records, strict or adaptive: at the window's first record
// round (the own records) and at its second (the first relayed level),
// restoring the edges a round later. A level is lost while deeper levels
// keep flowing, so relays forward records whose parent's batch never
// arrived. Each row must cut an edge that carries records in that round
// of the fault-free run, and no row may verify with a wrong root.
func lossInWindows(t *testing.T, g *graph.Graph, assignment []*bitstring.BitString, s Scheme) {
	carried := recordEdges(t, g, assignment, s)
	var rounds []int
	for r := range carried {
		if len(carried[r]) > 0 && (r == 0 || len(carried[r-1]) == 0) {
			rounds = append(rounds, r)
			if r+1 < len(carried) && len(carried[r+1]) > 0 {
				rounds = append(rounds, r+1)
			}
		}
	}
	// Phase 1 streams nothing (every node is a root), so two rounds of
	// each of phases 2..P and of the final collect: 2P rounds.
	if p := NewSchedule(g.N(), DefaultCap).P; len(rounds) != 2*p {
		t.Fatalf("%s: record rounds %v, want two in each of %d windows", s.Name(), rounds, p)
	}
	opt := sim.Options{EnablePulses: s.NeedsPulses()}
	for _, every := range []int{2, 3, 5} {
		for _, round := range rounds {
			sc := &sim.Scenario{}
			cuts := false
			for e := 0; e < g.M(); e += every {
				sc.Events = append(sc.Events,
					sim.ScenarioEvent{Round: round, Edge: graph.EdgeID(e), Action: sim.ActionLinkDown},
					sim.ScenarioEvent{Round: round + 1, Edge: graph.EdgeID(e), Action: sim.ActionLinkUp})
				cuts = cuts || slices.Contains(carried[round], graph.EdgeID(e))
			}
			if !cuts {
				t.Fatalf("%s every=%d round=%d: no downed edge carries records", s.Name(), every, round)
			}
			opt.Scenario = sc
			res, err := sim.NewNetwork(g).Run(s.NewNode, assignment, opt)
			if err != nil {
				continue // decoder noticed (panic) or timed out: fine
			}
			if res.LinkDropped == 0 {
				t.Fatalf("%s every=%d round=%d: nothing dropped", s.Name(), every, round)
			}
			if v := advice.VerifyOutput(g, res.ParentPorts); v.Verified && v.Root != 0 {
				t.Fatalf("%s every=%d round=%d: lossy run verified with wrong root", s.Name(), every, round)
			}
		}
	}
}

// recordEdges runs s fault-free on one worker and returns, for each
// round, the edges over which a record batch was sent.
func recordEdges(t *testing.T, g *graph.Graph, assignment []*bitstring.BitString, s Scheme) [][]graph.EdgeID {
	t.Helper()
	var carried [][]graph.EdgeID
	next := 0 // factories run once per node, in node order
	factory := func(view *sim.NodeView) sim.Node {
		u := graph.NodeID(next)
		next++
		return &recordTap{Node: s.NewNode(view), g: g, u: u, carried: &carried}
	}
	res, err := sim.NewNetwork(g).Run(factory, assignment, sim.Options{Workers: 1, EnablePulses: s.NeedsPulses()})
	if err != nil || !advice.VerifyOutput(g, res.ParentPorts).Verified {
		t.Fatalf("%s: fault-free run failed: %v", s.Name(), err)
	}
	return carried
}

// recordTap notes the edges its node sends record batches over.
type recordTap struct {
	sim.Node
	g       *graph.Graph
	u       graph.NodeID
	carried *[][]graph.EdgeID
}

func (r *recordTap) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	sends := r.Node.Round(ctx, view, inbox)
	for _, snd := range sends {
		if _, ok := snd.Msg.(*convergecast.Batch); ok {
			for len(*r.carried) <= ctx.Round {
				*r.carried = append(*r.carried, nil)
			}
			(*r.carried)[ctx.Round] = append((*r.carried)[ctx.Round], r.g.Ports(r.u)[snd.Port])
		}
	}
	return sends
}

// Schedule internals.
func TestScheduleLocate(t *testing.T) {
	s := NewSchedule(100, DefaultCap) // width=7, P=3
	if s.Width != 7 || s.P != 3 {
		t.Fatalf("schedule: width=%d P=%d", s.Width, s.P)
	}
	kind, phase, slot := s.Locate(1)
	if kind != KindPhase || phase != 1 || slot != 0 {
		t.Fatalf("Locate(1) = %v %d %d", kind, phase, slot)
	}
	// Phase windows of 2^(i+1)+2 rounds are contiguous.
	round := 1
	for i := 1; i <= s.P; i++ {
		for sl := 0; sl < 1<<(i+1)+2; sl++ {
			k, p, got := s.Locate(round)
			if k != KindPhase || p != i || got != sl {
				t.Fatalf("Locate(%d) = %v %d %d, want phase %d slot %d", round, k, p, got, i, sl)
			}
			round++
		}
	}
	k, p, sl := s.Locate(round)
	if k != KindFinal || p != s.P+1 || sl != 0 {
		t.Fatalf("final start: Locate(%d) = %v %d %d", round, k, p, sl)
	}
	if s.Total() != round+s.Width+1 {
		t.Fatalf("Total = %d", s.Total())
	}
	if k, _, _ := s.Locate(s.Total() + 1); k != KindDone {
		t.Fatal("past-schedule rounds must be KindDone")
	}
}

func TestScheduleSmall(t *testing.T) {
	s := NewSchedule(1, DefaultCap)
	if s.Total() != 0 {
		t.Fatalf("n=1 total = %d", s.Total())
	}
	s = NewSchedule(2, DefaultCap)
	if s.P != 0 || s.Width != 1 {
		t.Fatalf("n=2: P=%d width=%d", s.P, s.Width)
	}
	if k, _, sl := s.Locate(1); k != KindFinal || sl != 0 {
		t.Fatal("n=2 round 1 should open the final window")
	}
}

func BenchmarkTheorem3(b *testing.B) {
	g := seeded(b, "random", 256, 1, gen.WeightsDistinct)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := advice.Run(Scheme{}, g, 0, sim.Options{})
		if err != nil || !res.Verified {
			b.Fatalf("%v %v", err, res.VerifyErr)
		}
	}
}
