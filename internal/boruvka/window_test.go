package boruvka

import (
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/reference"
)

// TestRunWindowsExhaustive holds every phase window of Run to
// reference.Boruvka on all 728 connected labelled graphs on 5 nodes,
// each with distinct, equal and two-level weights, from every root.
// Each decomposition first gets an empty window, which must fail
// before Run roots the tree; then every window (first, last) with
// 0 ≤ first ≤ TotalPhases+2 and first−1 ≤ last ≤ TotalPhases+2 is
// checked by checkWindow, so a window that starts past phase 1 holds
// the partitions Run rebuilds without annotating them.
func TestRunWindowsExhaustive(t *testing.T) {
	const n = 5
	var pairs [][2]graph.NodeID
	for u := range graph.NodeID(n) {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]graph.NodeID{u, v})
		}
	}
	connected := 0
	for mask := 1; mask < 1<<len(pairs); mask++ {
		var chosen [][2]graph.NodeID
		for k, p := range pairs {
			if mask>>k&1 == 1 {
				chosen = append(chosen, p)
			}
		}
		weights := []struct {
			mode   string
			weight func(k int) graph.Weight
		}{
			{"distinct", func(k int) graph.Weight { return graph.Weight((7*k+mask)%len(pairs) + 1) }},
			{"equal", func(int) graph.Weight { return 1 }},
			{"two-level", func(k int) graph.Weight { return graph.Weight(1 + (k+mask)%2) }},
		}
		counted := false
		for _, w := range weights {
			b := graph.NewBuilder(n)
			for k, p := range chosen {
				b.AddEdge(p[0], p[1], w.weight(k))
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !reference.Connected(g) {
				break
			}
			if !counted {
				connected, counted = connected+1, true
			}
			for root := range graph.NodeID(n) {
				want := reference.Boruvka(g, root)
				d, err := DecomposeOpt(g, root, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Run(2, 1, func(int, StreamVisit) error { return nil }); err == nil || d.ParentPort != nil {
					t.Fatalf("mask %#x %s root %d: window [2, 1] gave error %v and rooted %v, want an error before rooting", mask, w.mode, root, err, d.ParentPort != nil)
				}
				top := d.TotalPhases + 2
				for first := 0; first <= top; first++ {
					for last := first - 1; last <= top; last++ {
						if err := checkWindow(d, want, first, last); err != nil {
							t.Fatalf("mask %#x %s root %d: %v", mask, w.mode, root, err)
						}
					}
				}
			}
		}
	}
	if connected != 728 {
		t.Fatalf("%d connected labelled graphs on %d nodes, want 728", connected, n)
	}
}

// FuzzRunWindow holds one Run window to reference.Boruvka on a small
// graph and root read from the input by reference.FuzzGraph (n ≤ 32,
// weights 1–4, any port numbering and identifiers), then a KeepPhases
// in 0..3 and a window (first, last), each in 0..7. A window that is empty or outside
// [1, TotalPhases+1], or that reaches a phase up to TotalPhases whose
// selections KeepPhases dropped, must fail before any visit and before
// rooting the tree; any other must visit exactly the reference's
// fragments of its phases (checkWindow). The committed seeds under
// testdata/fuzz are a star (one phase), a path of equal weights, and a
// window that starts at the spanning fragment of a four-phase path.
func FuzzRunWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		g, root := reference.FuzzGraph(next)
		keep, first, last := next()%4, next()%8, next()%8
		d, err := DecomposeOpt(g, root, Options{KeepPhases: keep})
		if err != nil {
			t.Fatal(err)
		}
		want := reference.Boruvka(g, root)
		total := len(want) - 1
		if hi := min(last, total); keep > 0 && first >= 1 && first <= hi && hi > keep {
			visits := 0
			err := d.Run(first, last, func(int, StreamVisit) error { visits++; return nil })
			if err == nil || visits != 0 || d.ParentPort != nil {
				t.Fatalf("keep=%d window [%d, %d] of %d phases: %d visits, error %v, rooted %v; want an error before rooting", keep, first, last, total, visits, err, d.ParentPort != nil)
			}
			return
		}
		if first < 1 || first > min(last, total+1) {
			if err := d.Run(first, last, func(int, StreamVisit) error { return nil }); err == nil || d.ParentPort != nil {
				t.Fatalf("window [%d, %d] of %d phases: error %v, rooted %v; want an error before rooting", first, last, total, err, d.ParentPort != nil)
			}
		}
		if err := checkWindow(d, want, first, last); err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
	})
}
