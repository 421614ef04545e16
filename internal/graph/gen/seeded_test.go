package gen

import (
	"runtime"
	"sort"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/par"
	"mstadvice/internal/reference"
)

// fingerprint reduces every observable byte of a graph — IDs, CSR
// adjacency with far endpoints and far ports, and the full edge records — to
// one FNV-1a word, so "bit-identical" comparisons and golden pins are a
// single integer check.
func fingerprint(g *graph.Graph) uint64 {
	h := uint64(1469598103934665603)
	wr := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	wr(uint64(g.N()))
	wr(uint64(g.M()))
	for u := 0; u < g.N(); u++ {
		id := graph.NodeID(u)
		wr(uint64(g.ID(id)))
		for p := range g.Ports(id) {
			hf := g.HalfAt(id, p)
			wr(uint64(hf.To))
			wr(uint64(g.Weight(hf.Edge)))
			wr(uint64(hf.Edge))
			wr(uint64(g.DstPort(id, p)))
		}
	}
	for _, e := range g.Edges() {
		wr(uint64(e.U))
		wr(uint64(e.V))
		wr(uint64(e.PU))
		wr(uint64(e.PV))
		wr(uint64(e.W))
	}
	return h
}

// TestBuildSeededValid checks every family builds, validates and is
// connected across sizes and weight modes (FromEdgeList validates every
// graph; reference.Validate checks it again with code of its own).
func TestBuildSeededValid(t *testing.T) {
	for _, name := range Names() {
		for _, n := range []int{1, 2, 5, 37, 200} {
			for _, wm := range []WeightMode{WeightsDistinct, WeightsRandom, WeightsUnit} {
				g, err := BuildSeeded(name, n, 99, SeededOptions{Weights: wm, Workers: 4})
				if err != nil {
					t.Fatalf("%s n=%d %v: %v", name, n, wm, err)
				}
				if err := reference.Validate(g); err != nil {
					t.Fatalf("%s n=%d %v: validate: %v", name, n, wm, err)
				}
				if !reference.Connected(g) {
					t.Fatalf("%s n=%d %v: disconnected", name, n, wm)
				}
			}
		}
	}
}

// TestBuildSeededWorkerDeterminism is the worker-count property wall for
// the parallel generators: workers {1,2,3,4,8,16} must produce the same
// bytes for all 12 families, and the whole set again under GOMAXPROCS=1
// (forcing every goroutine onto one OS thread exercises completely
// different interleavings).
func TestBuildSeededWorkerDeterminism(t *testing.T) {
	const n, seed = 230, 7
	check := func(t *testing.T) {
		for _, name := range Names() {
			ref, err := BuildSeeded(name, n, seed, SeededOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s workers=1: %v", name, err)
			}
			want := fingerprint(ref)
			for _, workers := range []int{2, 3, 4, 8, 16} {
				g, err := BuildSeeded(name, n, seed, SeededOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if got := fingerprint(g); got != want {
					t.Errorf("%s workers=%d: fingerprint %#x != 1-worker %#x", name, workers, got, want)
				}
			}
		}
	}
	check(t)
	t.Run("gomaxprocs1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t)
	})
}

// seededGoldens pins the bytes of the seeded generation path, one
// fingerprint per family at (n=97, seed=1234). Any change to the
// substream keying, the Feistel schedule, a family enumeration or the
// assembly order shows up here and must be treated as a versioned,
// deliberate generator change (rerun TestSeededGolden, read the new
// fingerprints off the failures, and update this table in the same
// change).
var seededGoldens = map[string]uint64{
	"path":        0xdd66d5a5a32b31a7,
	"ring":        0x4b6ff2512136995b,
	"grid":        0xc2e8c854bc52dca9,
	"tree":        0x0dbeb72c8c8f82d7,
	"random":      0x87d80acf9b03e5e4,
	"expander":    0x11eca3281a076f95,
	"star":        0x6245a5e9898b29b9,
	"caterpillar": 0xb1132e6f177be8ef,
	"binarytree":  0x217d1580259df49f,
	"complete":    0x36c8b15b661b095d,
	"wheel":       0x8cfbacfc1dac2293,
	"lollipop":    0x4ee09a8605f6a521,
}

func TestSeededGolden(t *testing.T) {
	for _, name := range Names() {
		g, err := BuildSeeded(name, 97, 1234, SeededOptions{Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fingerprint(g)
		want, ok := seededGoldens[name]
		if !ok {
			t.Errorf("%s: no golden pinned; got %#x", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: fingerprint %#x != pinned golden %#x (seeded generator output changed)", name, got, want)
		}
	}
}

// TestSubstreamNoCollisions draws 2²⁰ values across four purpose-keyed
// substreams of one seed and checks they are pairwise distinct. Within a
// stream this is a theorem (counter-mode SplitMix64 is a bijection of
// the counter); across streams it verifies the purpose keying separates
// the streams for the seeds the generators actually use.
func TestSubstreamNoCollisions(t *testing.T) {
	const perStream = 1 << 18
	purposes := []uint64{purposeIDs, purposePorts, purposeWeight, purposeTree}
	vals := make([]uint64, 0, perStream*len(purposes))
	for _, p := range purposes {
		key := streamKey(0xABCDEF, p)
		for i := uint64(0); i < perStream; i++ {
			vals = append(vals, draw(key, i))
		}
	}
	par.SortU64(0, vals)
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] {
			t.Fatalf("substream collision: value %#x drawn twice", vals[i])
		}
	}
}

// TestSeededDistributionMatchesSequential checks the seeded generators'
// distributions: the random family has 3n edges (mean degree 6),
// a distinct-mode weight set is exactly 1..m, random-mode weights have
// the uniform mean within 5%, and the expander's three Hamiltonian
// cycles lose under 2% of their edges to duplicates. Fixed seeds keep
// it deterministic.
func TestSeededDistributionMatchesSequential(t *testing.T) {
	const n = 4000
	parG, err := BuildSeeded("random", n, 5, SeededOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if parG.M() != 3*n {
		t.Fatalf("random family has %d edges, want %d", parG.M(), 3*n)
	}

	// Distinct weights must be exactly the permutation 1..m.
	ws := make([]int, parG.M())
	for i, e := range parG.Edges() {
		ws[i] = int(e.W)
	}
	sort.Ints(ws)
	for i, w := range ws {
		if w != i+1 {
			t.Fatalf("distinct weights are not a permutation of 1..m: position %d holds %d", i, w)
		}
	}

	// Random weights: mean within 5% of the uniform-mode expectation.
	rg, err := BuildSeeded("random", n, 6, SeededOptions{Weights: WeightsRandom, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range rg.Edges() {
		sum += float64(e.W)
	}
	mean := sum / float64(rg.M())
	expect := (float64(rg.M()/2+1) + 1) / 2
	if mean < 0.95*expect || mean > 1.05*expect {
		t.Errorf("random weight mean %.1f vs expected %.1f", mean, expect)
	}

	// Expander: three Hamiltonian cycles with duplicates dropped, so the
	// mean degree is just under 6.
	parE, err := BuildSeeded("expander", n, 9, SeededOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mean := 2 * float64(parE.M()) / float64(parE.N()); mean < 0.98*6 || mean > 6 {
		t.Errorf("expander mean degree %.3f, want within 2%% below 6", mean)
	}
}

// TestSeededOptionsRespected spot-checks KeepIDs/KeepPorts and that
// distinct seeds give distinct graphs.
func TestSeededOptionsRespected(t *testing.T) {
	g, err := BuildSeeded("random", 100, 3, SeededOptions{KeepIDs: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if g.ID(graph.NodeID(u)) != int64(u+1) {
			t.Fatalf("KeepIDs violated at node %d: ID %d", u, g.ID(graph.NodeID(u)))
		}
	}
	a, err := BuildSeeded("random", 100, 10, SeededOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSeeded("random", 100, 11, SeededOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) == fingerprint(b) {
		t.Error("different seeds produced identical graphs")
	}
}
