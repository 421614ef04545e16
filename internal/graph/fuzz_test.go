package graph_test

import (
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/reference"
)

// FuzzBuilderDedup drives the Builder's duplicate-edge check with
// arbitrary edge scripts (bytes taken in (u, v, w) triples over 8
// nodes): Build must reject exactly the scripts containing a self-loop
// or a duplicate {u, v} pair — in either orientation — and accept
// everything else with a fully consistent graph.
func FuzzBuilderDedup(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 2})          // duplicate, same orientation
	f.Add([]byte{0, 1, 1, 1, 0, 2})          // duplicate, reversed
	f.Add([]byte{2, 2, 1})                   // self-loop
	f.Add([]byte{0, 1, 1, 2, 3, 2, 3, 2, 3}) // reversed duplicate later
	f.Add([]byte{0, 1, 1, 1, 2, 1, 2, 0, 1}) // clean triangle
	long := make([]byte, 0, 3*40)
	for i := 0; i < 40; i++ {
		long = append(long, 0, 1, byte(i))
	}
	f.Add(long) // one pair repeated past the pairwise-compare degree
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		b := graph.NewBuilder(n)
		ref := make(map[[2]graph.NodeID]bool)
		expectErr := false
		for i := 0; i+2 < len(data); i += 3 {
			u := graph.NodeID(data[i] % n)
			v := graph.NodeID(data[i+1] % n)
			w := graph.Weight(data[i+2]%5 + 1)
			b.AddEdge(u, v, w)
			if u == v {
				// AddEdge records the failure immediately and ignores the
				// rest of the script.
				expectErr = true
				break
			}
			key := [2]graph.NodeID{u, v}
			if u > v {
				key = [2]graph.NodeID{v, u}
			}
			if ref[key] {
				expectErr = true
			}
			ref[key] = true
		}
		g, err := b.Build()
		if expectErr {
			if err == nil {
				t.Fatalf("script with self-loop/duplicate accepted: %v", data)
			}
			return
		}
		if err != nil {
			t.Fatalf("clean script rejected: %v (%v)", err, data)
		}
		if g.M() != len(ref) {
			t.Fatalf("built %d edges, want %d", g.M(), len(ref))
		}
		if err := reference.Validate(g); err != nil {
			t.Fatalf("built graph fails validation: %v", err)
		}
	})
}
