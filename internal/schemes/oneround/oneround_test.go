package oneround

import (
	"math/rand"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
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

func TestCorrectAcrossFamilies(t *testing.T) {
	var s Scheme
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 3, 9, 33, 70} {
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				rng := rand.New(rand.NewSource(int64(n)*7 + int64(mode)))
				g := seeded(t, fam, n, uint64(int64(n)*7+int64(mode)), mode)
				root := graph.NodeID(rng.Intn(g.N()))
				res, err := advice.Run(s, g, root, sim.Options{})
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", fam, mode, n, err)
				}
				if !res.Verified {
					t.Fatalf("%s/%s n=%d: not the MST: %v", fam, mode, n, res.VerifyErr)
				}
				if res.Root != root {
					t.Fatalf("%s/%s n=%d: root %d, want %d", fam, mode, n, res.Root, root)
				}
				if res.Rounds != 1 {
					t.Fatalf("%s/%s n=%d: %d rounds, want exactly 1", fam, mode, n, res.Rounds)
				}
			}
		}
	}
}

// Theorem 2's size profile on node-distinct weights: average advice is
// bounded by the constant c = 12 and the maximum by O(log² n) — concretely
// 2·Σ_{i=1..⌈log n⌉}(i+1) bits.
func TestAdviceSizeBounds(t *testing.T) {
	var s Scheme
	for _, fam := range gen.Names() {
		for _, n := range []int{16, 64, 256} {
			g := seeded(t, fam, n, uint64(int64(n)), gen.WeightsDistinct)
			assignment, err := s.Advise(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			stats := advice.Measure(assignment, g.N())
			if stats.AvgBits > AverageConstant {
				t.Fatalf("%s n=%d: average advice %.2f > %v bits", fam, n, stats.AvgBits, AverageConstant)
			}
			logn := graph.CeilLog2(g.N())
			maxBound := 0
			for i := 1; i <= logn; i++ {
				maxBound += 2 * (i + 1)
			}
			if stats.MaxBits > maxBound {
				t.Fatalf("%s n=%d: max advice %d > bound %d", fam, n, stats.MaxBits, maxBound)
			}
		}
	}
}

// The messages are single bits: the scheme stays well inside CONGEST.
func TestMessageSizes(t *testing.T) {
	var s Scheme
	g := seeded(t, "random", 50, 3, gen.WeightsDistinct)
	res, err := advice.Run(s, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMsgBits > 1 {
		t.Fatalf("max message %d bits, want 1", res.MaxMsgBits)
	}
	// At most one adopt per tree edge (two only for reciprocal selections,
	// which still ride distinct edges), so messages <= n-1.
	if res.Messages > int64(g.N()-1) {
		t.Fatalf("messages = %d > n-1", res.Messages)
	}
}

// With node-distinct weights the paper's chunk widths hold exactly: a
// node choosing at phase i stores an (i+1)-bit chunk (i rank bits + the
// up bit), so its decoded chunks have strictly increasing lengths.
func TestChunkWidthsMatchPhases(t *testing.T) {
	var s Scheme
	g := seeded(t, "random", 200, 77, gen.WeightsDistinct)
	assignment, err := s.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawMulti := false
	for u := range assignment {
		chunks, err := bitstring.SplitChunks(assignment[u])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(chunks); i++ {
			if chunks[i].Len() <= chunks[i-1].Len() {
				t.Fatalf("node %d: chunk lengths not increasing: %d then %d",
					u, chunks[i-1].Len(), chunks[i].Len())
			}
		}
		if len(chunks) > 1 {
			sawMulti = true
		}
		for _, c := range chunks {
			// Phase i chunks are i+1 bits; i ≤ ⌈log n⌉.
			if c.Len() > gcl(g.N())+1 {
				t.Fatalf("node %d: chunk of %d bits exceeds ⌈log n⌉+1", u, c.Len())
			}
		}
	}
	if !sawMulti {
		t.Fatal("no node chose in two phases — test graph too small to be meaningful")
	}
}

func gcl(n int) int { return graph.CeilLog2(n) }

// Tie-heavy graphs exercise the widened-chunk fallback; the output must
// still be the exact MST in exactly one round.
func TestUnitWeightFallback(t *testing.T) {
	var s Scheme
	g := seeded(t, "complete", 24, 5, gen.WeightsUnit)
	res, err := advice.Run(s, g, 11, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Rounds != 1 {
		t.Fatalf("unit K24: verified=%v rounds=%d (%v)", res.Verified, res.Rounds, res.VerifyErr)
	}
}

// Average advice must stay flat as n grows (the headline of Theorem 2).
func TestAverageStaysConstant(t *testing.T) {
	var s Scheme
	prev := 0.0
	for _, n := range []int{32, 128, 512} {
		g := seeded(t, "random", n, 1, gen.WeightsDistinct)
		assignment, err := s.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		avg := advice.Measure(assignment, g.N()).AvgBits
		if avg > AverageConstant {
			t.Fatalf("n=%d: avg %.2f exceeds c", n, avg)
		}
		prev = avg
	}
	_ = prev
}

func TestCorruptedAdviceDetected(t *testing.T) {
	var s Scheme
	g := seeded(t, "random", 15, 6, gen.WeightsDistinct)
	assignment, err := s.Advise(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find a node with advice and truncate it to an odd length: the
	// decoder must reject it rather than guess.
	for u := range assignment {
		if assignment[u].Len() >= 3 {
			assignment[u] = assignment[u].Slice(0, assignment[u].Len()-1)
			break
		}
	}
	nw := sim.NewNetwork(g)
	res, err := nw.Run(s.NewNode, assignment, sim.Options{})
	if err != nil {
		return // panic surfaced: detected
	}
	if advice.VerifyOutput(g, res.ParentPorts).Verified {
		t.Fatal("corrupted advice verified")
	}
}
