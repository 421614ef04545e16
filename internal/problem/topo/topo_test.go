package topo

import (
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/lowerbound"
	"mstadvice/internal/problem"
	"mstadvice/internal/reference"
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

// TestFingerprintInvariance pins the class tag's isomorphism invariance:
// relabeling nodes (IDs and insertion order) and rescaling weights must
// not move the fingerprint, while structurally distinct graphs must
// separate.
func TestFingerprintInvariance(t *testing.T) {
	ring := func(n int, perm []graph.NodeID, w graph.Weight) *graph.Graph {
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(perm[i], perm[(i+1)%n], w)
		}
		return reference.MustBuild(b)
	}
	n := 16
	id := make([]graph.NodeID, n)
	rev := make([]graph.NodeID, n)
	for i := range id {
		id[i] = graph.NodeID(i)
		rev[i] = graph.NodeID(n - 1 - i)
	}
	base := Fingerprint(ring(n, id, 1))
	if got := Fingerprint(ring(n, rev, 1)); got != base {
		t.Errorf("relabeled ring fingerprint %#x != %#x", got, base)
	}
	if got := Fingerprint(ring(n, id, 999)); got != base {
		t.Errorf("reweighted ring fingerprint %#x != %#x (weights must be excluded)", got, base)
	}
	pg := seeded(t, "path", n, 11, gen.WeightsDistinct)
	if got := Fingerprint(pg); got == base {
		t.Errorf("path and ring share fingerprint %#x", got)
	}
}

// TestShape pins the coarse structural tag.
func TestShape(t *testing.T) {
	for _, tc := range []struct {
		family string
		n      int
		want   string
	}{
		{"ring", 16, "ring"},
		{"path", 16, "path"},
		{"star", 16, "star"},
		{"complete", 8, "complete"},
		{"tree", 32, "tree"},
		{"random", 32, "general"},
	} {
		g := seeded(t, tc.family, tc.n, 3, gen.WeightsDistinct)
		if got := Shape(g); got != tc.want {
			t.Errorf("Shape(%s, n=%d) = %q, want %q", tc.family, tc.n, got, tc.want)
		}
	}
}

// TestRegistered pins the platform wiring: the topo problem is in the
// registry, its scheme names route back to it, and the registry refuses
// a scheme-name collision.
func TestRegistered(t *testing.T) {
	p, err := problem.ByName(Name)
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme().Name() != "topo-flood" {
		t.Errorf("canonical scheme = %q, want topo-flood", p.Scheme().Name())
	}
	for _, name := range []string{"topo-flood", "topo-direct"} {
		owner, s, ok := problem.BySchemeName(name)
		if !ok || owner.Name() != Name || s.Name() != name {
			t.Errorf("BySchemeName(%q) = (%v, %v, %v), want topo", name, owner, s, ok)
		}
	}
	if (Flood{Radius: 4}).Name() != "topo-flood-r4" {
		t.Errorf("Flood{Radius:4}.Name() = %q", Flood{Radius: 4}.Name())
	}
}

// TestAllFamiliesBothEngines is the end-to-end pin named in the README
// paper→code map: the flood and direct decoders run on every registered
// graph family, on the unmodified synchronous AND asynchronous engines,
// and every node outputs the instance's class tag. It also checks the
// tradeoff shape: flood advice is O(1) + ClassBits at beacons only, and
// the run verifies through advice.Run's registry-routed verifier.
func TestAllFamiliesBothEngines(t *testing.T) {
	for _, fam := range gen.Names() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			g := seeded(t, fam, 40, 9, gen.WeightsDistinct)
			want := Class(g)
			for _, scheme := range []advice.Scheme{Flood{}, Flood{Radius: 2}, Direct{}} {
				for _, async := range []bool{false, true} {
					res, err := advice.Run(scheme, g, 0, sim.Options{Async: async})
					if err != nil {
						t.Fatalf("%s async=%v: %v", scheme.Name(), async, err)
					}
					if res.Problem != Name {
						t.Fatalf("%s: run attributed to problem %q", scheme.Name(), res.Problem)
					}
					if !res.Verified {
						t.Fatalf("%s async=%v: not verified: %v", scheme.Name(), async, res.VerifyErr)
					}
					for u, c := range res.ParentPorts {
						if c != want {
							t.Fatalf("%s async=%v: node %d output %#x, want %#x", scheme.Name(), async, u, c, want)
						}
					}
					out, ok := res.Output.(Output)
					if !ok || out.Class != want {
						t.Fatalf("%s: typed output %#v, want class %#x", scheme.Name(), res.Output, want)
					}
					if res.Root != -1 {
						t.Fatalf("%s: Root = %d, want -1 on non-MST runs", scheme.Name(), res.Root)
					}
				}
			}
		})
	}
}

// TestTradeoff pins the bits-vs-rounds curve on a path (worst-case
// eccentricity): root-only flood pays eccentricity rounds for ~1 bit per
// node; Direct pays ClassBits per node for zero rounds; intermediate
// radii interpolate.
func TestTradeoff(t *testing.T) {
	g := seeded(t, "path", 64, 5, gen.WeightsDistinct)
	flood, err := advice.Run(Flood{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := advice.Run(Direct{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := advice.Run(Flood{Radius: 4}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dist, _ := g.BFS(0)
	ecc := slices.Max(dist)
	if flood.Rounds < ecc {
		t.Errorf("root-only flood finished in %d rounds, needs >= ecc %d", flood.Rounds, ecc)
	}
	if direct.Rounds != 0 || direct.Messages != 0 {
		t.Errorf("direct used %d rounds, %d messages; want 0, 0", direct.Rounds, direct.Messages)
	}
	if direct.Advice.MaxBits != ClassBits {
		t.Errorf("direct max advice = %d, want %d", direct.Advice.MaxBits, ClassBits)
	}
	if flood.Advice.MaxBits != 1+ClassBits {
		t.Errorf("flood beacon advice = %d, want %d", flood.Advice.MaxBits, 1+ClassBits)
	}
	if flood.Advice.AvgBits >= direct.Advice.AvgBits {
		t.Errorf("flood avg advice %.2f not below direct %.2f", flood.Advice.AvgBits, direct.Advice.AvgBits)
	}
	if mid.Rounds > 4 {
		t.Errorf("radius-4 flood took %d rounds, want <= 4", mid.Rounds)
	}
	if mid.Advice.AvgBits >= direct.Advice.AvgBits || mid.Advice.AvgBits <= flood.Advice.AvgBits {
		t.Errorf("radius-4 avg advice %.2f not strictly between %.2f and %.2f",
			mid.Advice.AvgBits, flood.Advice.AvgBits, direct.Advice.AvgBits)
	}
}

// TestAsyncParity pins sync/async decode parity per node across
// schedulers, the topo analogue of the synchronizer's MST parity test.
func TestAsyncParity(t *testing.T) {
	g := seeded(t, "random", 96, 17, gen.WeightsDistinct)
	syncRes, err := advice.Run(Flood{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []sim.Scheduler{sim.FIFO{}, sim.LIFO{}, sim.MaxDelay{}} {
		asyncRes, err := advice.Run(Flood{}, g, 0, sim.Options{Async: true, Scheduler: sched})
		if err != nil {
			t.Fatalf("scheduler %s: %v", sched.Name(), err)
		}
		for u := range syncRes.ParentPorts {
			if asyncRes.ParentPorts[u] != syncRes.ParentPorts[u] {
				t.Fatalf("scheduler %s: node %d async output %#x != sync %#x",
					sched.Name(), u, asyncRes.ParentPorts[u], syncRes.ParentPorts[u])
			}
		}
		if asyncRes.Pulses != syncRes.Rounds {
			t.Errorf("scheduler %s: %d pulses != %d sync rounds", sched.Name(), asyncRes.Pulses, syncRes.Rounds)
		}
	}
}

// TestLowerBound pins the pigeonhole experiment: constant target view,
// pairwise distinct classes, Served == Bound == min(k, 2^m) for every
// budget, and ⌈log k⌉ bits serving the whole family.
func TestLowerBound(t *testing.T) {
	fam, err := NewFamily(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	view := lowerbound.TargetView(fam.Instances[0], fam.Target)
	for j, g := range fam.Instances {
		got := lowerbound.TargetView(g, fam.Target)
		if len(got) != len(view) {
			t.Fatalf("instance %d: target degree %d != %d", j, len(got), len(view))
		}
		for p := range got {
			if got[p] != view[p] {
				t.Fatalf("instance %d: target view differs at port %d", j, p)
			}
		}
		for j2 := 0; j2 < j; j2++ {
			if fam.Classes[j2] == fam.Classes[j] {
				t.Fatalf("instances %d and %d share class %#x — family is not an adversary", j2, j, fam.Classes[j])
			}
		}
	}
	for m := 0; m <= 4; m++ {
		res := fam.Experiment(m)
		want := fam.K
		if 1<<uint(m) < want {
			want = 1 << uint(m)
		}
		if res.Served != want || res.Bound != want {
			t.Errorf("m=%d: Served=%d Bound=%d, want %d", m, res.Served, res.Bound, want)
		}
	}
	if res := fam.Experiment(3); res.Served != fam.K {
		t.Errorf("log k = 3 bits served %d of %d", res.Served, fam.K)
	}
	if _, err := NewFamily(10, 8); err == nil {
		t.Error("NewFamily(10, 8) accepted n < k+6")
	}
}

// TestEncodeDecode pins the Problem Encode/Scheme contract the store and
// serving layers rely on: the canonical decoder replays advice encoded at
// any radius, and VerifyOutput rejects a wrong tag.
func TestEncodeDecode(t *testing.T) {
	g := seeded(t, "grid", 36, 2, gen.WeightsDistinct)
	p, err := problem.ByName(Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, radius := range []int{0, 3} {
		adv, err := p.Encode(g, 0, problem.EncodeOptions{Param: radius})
		if err != nil {
			t.Fatal(err)
		}
		nw := sim.NewNetwork(g)
		simRes, err := nw.Run(p.Scheme().NewNode, adv, sim.Options{})
		if err != nil {
			t.Fatalf("radius %d: %v", radius, err)
		}
		out := p.VerifyOutput(g, 0, simRes.ParentPorts)
		if !out.OK() {
			t.Fatalf("radius %d: %v", radius, out.Err())
		}
	}
	bad := make([]int, g.N())
	if out := p.VerifyOutput(g, 0, bad); out.OK() {
		t.Error("VerifyOutput accepted all-zero tags")
	}
	if out := p.VerifyOutput(g, 0, nil); out.OK() {
		t.Error("VerifyOutput accepted missing outputs")
	}
}
