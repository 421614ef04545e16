package mstp

import (
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/core"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/problem"
	"mstadvice/internal/sim"
)

// TestEncodeByteIdentity is the pinning test named in the README
// paper→code map: routing the Theorem 3 oracle through the problem
// registry is byte-identical to calling core.BuildAdvice directly, for
// the default and a custom cap and for any worker count.
func TestEncodeByteIdentity(t *testing.T) {
	g, err := gen.BuildSeeded("random", 128, 41, gen.SeededOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := problem.ByName(Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		param, workers, wantCap int
	}{
		{0, 0, core.DefaultCap},
		{16, 0, 16},
		{0, 4, core.DefaultCap},
	} {
		got, err := p.Encode(g, 0, problem.EncodeOptions{Param: tc.param, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BuildAdvice(g, 0, tc.wantCap)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("param=%d workers=%d: %d strings, want %d", tc.param, tc.workers, len(got), len(want))
		}
		for u := range want {
			if !got[u].Equal(want[u]) {
				t.Fatalf("param=%d workers=%d: node %d advice differs from core.BuildAdvice", tc.param, tc.workers, u)
			}
		}
	}
}

// TestVerifyOutput pins the registered verifier against the harness's
// MST judgement, including the weight measurement and root lifting.
func TestVerifyOutput(t *testing.T) {
	g, err := gen.BuildSeeded("random", 64, 13, gen.SeededOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := advice.Run(core.Scheme{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Problem != Name {
		t.Fatalf("core scheme attributed to problem %q", res.Problem)
	}
	out, ok := res.Output.(advice.MSTOutput)
	if !ok {
		t.Fatalf("Output has type %T, want advice.MSTOutput", res.Output)
	}
	if !out.Verified || out.Err() != nil {
		t.Fatalf("not verified: %v", out.Err())
	}
	if out.Root != res.Root {
		t.Fatalf("Output.Root %d != Result.Root %d", out.Root, res.Root)
	}
	if want := advice.VerifyOutput(g, res.ParentPorts); out != want {
		t.Fatalf("registered verifier returned %+v, advice.VerifyOutput %+v", out, want)
	}
	if out.Weight <= 0 {
		t.Fatalf("MST weight %d, want > 0", out.Weight)
	}
	bad := make([]int, g.N()) // every node claims port 0, nobody the root
	if v := (Problem{}).VerifyOutput(g, 0, bad); v.OK() {
		t.Error("verifier accepted a rootless output")
	}
}

// TestSchemes pins the registered scheme set: the five paper schemes plus
// the adaptive and pulse-driven variants, canonical decoder core.Scheme.
func TestSchemes(t *testing.T) {
	p, err := problem.ByName(Name)
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme().Name() != (core.Scheme{}).Name() {
		t.Errorf("canonical scheme %q, want %q", p.Scheme().Name(), (core.Scheme{}).Name())
	}
	names := map[string]bool{}
	for _, s := range p.Schemes() {
		names[s.Name()] = true
		owner, _, ok := problem.BySchemeName(s.Name())
		if !ok || owner.Name() != Name {
			t.Errorf("scheme %q does not route back to mst", s.Name())
		}
	}
	for _, want := range []string{"trivial", (core.Scheme{}).Name(), (core.Scheme{Adaptive: true}).Name()} {
		if !names[want] {
			t.Errorf("scheme %q missing from Schemes() (have %v)", want, names)
		}
	}
}
