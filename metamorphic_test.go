package mstadvice

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/problem/mstp"
)

// permutePorts relabels every node's ports by a seeded permutation π_u
// of [0, deg u) and rebuilds the graph from the rewritten records. It
// returns the new graph and the permutations, pi[u][p] = π_u(p).
func permutePorts(t *testing.T, g *Graph, seed int64) (*Graph, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pi := make([][]int, g.N())
	for u := range pi {
		pi[u] = rng.Perm(g.Degree(NodeID(u)))
	}
	recs := slices.Clone(g.Edges())
	for e := range recs {
		recs[e].PU = int32(pi[recs[e].U][recs[e].PU])
		recs[e].PV = int32(pi[recs[e].V][recs[e].PV])
	}
	h, err := graph.FromEdgeList(g.N(), slices.Clone(g.IDs()), recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h, pi
}

// portRun is one scheme's oracle output and verified decode on one graph.
type portRun struct {
	advice []*bitstring.BitString
	res    *Result
}

func runPorts(t *testing.T, s Scheme, g *Graph) portRun {
	t.Helper()
	adv, err := s.Advise(g, 0)
	if err != nil {
		t.Fatalf("%s: oracle: %v", s.Name(), err)
	}
	res, err := advice.DecodeCtx(context.Background(), s, g, 0, adv, RunOptions{})
	if err != nil {
		t.Fatalf("%s: decode: %v", s.Name(), err)
	}
	if !res.Verified {
		t.Fatalf("%s: not verified: %v", s.Name(), res.VerifyErr)
	}
	return portRun{adv, res}
}

// TestPortPermutation checks the port-relabelling relation of the
// paper's model: ports are local names with no meaning beyond telling a
// node's edges apart, so relabelling every node's ports by π_u permutes
// the outputs and changes nothing else. For every registered scheme plus
// mst-hier-l2, on every family with distinct weights:
//
//   - both runs verify, and an MST parent port p becomes π_u(p) while
//     the root keeps −1 (a topology class tag is unchanged);
//   - the advice is byte-identical, except hier's, which names a parent
//     port;
//   - rounds, messages and total bits are identical, except pipeline's,
//     whose BFS tree breaks ties by port.
func TestPortPermutation(t *testing.T) {
	var schemes []Scheme
	for _, p := range Problems() {
		schemes = append(schemes, p.Schemes()...)
	}
	schemes = append(schemes, HierScheme(2))
	for fi, family := range gen.Names() {
		for _, n := range []int{17, 64} {
			g := seeded(t, family, n, uint64(40+fi), WeightsDistinct)
			h, pi := permutePorts(t, g, int64(n*100+fi))
			for _, s := range schemes {
				name := family + "/" + s.Name()
				base, perm := runPorts(t, s, g), runPorts(t, s, h)
				for u, out := range base.res.ParentPorts {
					want := out
					if base.res.Problem == mstp.Name && out != -1 {
						want = pi[u][out]
					}
					if got := perm.res.ParentPorts[u]; got != want {
						t.Fatalf("%s n=%d: node %d outputs %d, want %d (was %d)", name, n, u, got, want, out)
					}
				}
				if s.Name() != HierScheme(2).Name() {
					if len(base.advice) != len(perm.advice) {
						t.Fatalf("%s n=%d: advice for %d nodes, want %d", name, n, len(perm.advice), len(base.advice))
					}
					for u := range base.advice {
						if !perm.advice[u].Equal(base.advice[u]) {
							t.Fatalf("%s n=%d: advice of node %d is %v, want %v", name, n, u, perm.advice[u], base.advice[u])
						}
					}
				}
				if s.Name() == Pipeline().Name() {
					continue
				}
				b, p := base.res, perm.res
				if b.Rounds != p.Rounds || b.Messages != p.Messages || b.TotalBits != p.TotalBits {
					t.Fatalf("%s n=%d: rounds/messages/bits %d/%d/%d, want %d/%d/%d",
						name, n, p.Rounds, p.Messages, p.TotalBits, b.Rounds, b.Messages, b.TotalBits)
				}
			}
		}
	}
}
