package problem

import (
	"strings"
	"testing"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

type fakeScheme struct{ name string }

func (s fakeScheme) Name() string { return s.name }
func (fakeScheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	return nil, nil
}
func (fakeScheme) NewNode(view *sim.NodeView) sim.Node { return nil }

type fakeOutput struct{ name string }

func (o fakeOutput) Problem() string { return o.name }
func (fakeOutput) OK() bool          { return true }
func (fakeOutput) Err() error        { return nil }
func (fakeOutput) String() string    { return "fake" }

type fakeProblem struct {
	name    string
	schemes []Scheme
}

func (p fakeProblem) Name() string { return p.name }
func (p fakeProblem) Encode(g *graph.Graph, root graph.NodeID, opt EncodeOptions) ([]*bitstring.BitString, error) {
	return nil, nil
}
func (p fakeProblem) Scheme() Scheme    { return p.schemes[0] }
func (p fakeProblem) Schemes() []Scheme { return p.schemes }
func (p fakeProblem) VerifyOutput(g *graph.Graph, root graph.NodeID, outputs []int) Output {
	return fakeOutput{name: p.name}
}

// TestRegistry pins the registry contract: lookup by name and by scheme
// name, sorted enumeration, and rejection of duplicates and cross-problem
// scheme-name collisions.
func TestRegistry(t *testing.T) {
	a := fakeProblem{name: "zz-test-a", schemes: []Scheme{fakeScheme{name: "zz-scheme-1"}}}
	if err := Register(a); err != nil {
		t.Fatal(err)
	}
	if err := Register(a); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate registration: %v", err)
	}
	clash := fakeProblem{name: "zz-test-b", schemes: []Scheme{fakeScheme{name: "zz-scheme-1"}}}
	if err := Register(clash); err == nil || !strings.Contains(err.Error(), "already claimed") {
		t.Errorf("scheme-name collision: %v", err)
	}
	if err := Register(nil); err == nil {
		t.Error("nil problem accepted")
	}

	got, err := ByName("zz-test-a")
	if err != nil || got.Name() != "zz-test-a" {
		t.Fatalf("ByName: %v, %v", got, err)
	}
	if _, err := ByName("zz-nope"); err == nil {
		t.Error("unknown name accepted")
	}
	p, s, ok := BySchemeName("zz-scheme-1")
	if !ok || p.Name() != "zz-test-a" || s.Name() != "zz-scheme-1" {
		t.Errorf("BySchemeName = %v, %v, %v", p, s, ok)
	}
	if _, _, ok := BySchemeName("zz-scheme-unknown"); ok {
		t.Error("unknown scheme name resolved")
	}

	probs := Problems()
	for i := 1; i < len(probs); i++ {
		if probs[i-1].Name() >= probs[i].Name() {
			t.Errorf("Problems not sorted by name: %s before %s", probs[i-1].Name(), probs[i].Name())
		}
	}
	found := false
	for _, p := range probs {
		if p.Name() == "zz-test-a" {
			found = true
		}
	}
	if !found {
		t.Error("registered problem missing from Problems()")
	}
}
