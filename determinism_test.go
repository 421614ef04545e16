package mstadvice

import (
	"reflect"
	"testing"
)

// TestSchemesDeterministicAcrossWorkers asserts the engine's central
// contract after the slot-router rewrite: for every scheme, running with
// one worker and with 2 or 8 workers produces identical Results —
// rounds, message and bit accounting, per-round statistics, and outputs.
func TestSchemesDeterministicAcrossWorkers(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"random", seeded(t, "random", 60, 21, WeightsDistinct)},
		{"grid", seeded(t, "grid", 42, 22, WeightsDistinct)},
		{"expander", seeded(t, "expander", 48, 23, WeightsDistinct)},
	}
	for _, tc := range graphs {
		for _, s := range Schemes() {
			seq, err := Run(s, tc.g, 0, RunOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s workers=1: %v", tc.name, s.Name(), err)
			}
			if !seq.Verified {
				t.Fatalf("%s/%s: not verified: %v", tc.name, s.Name(), seq.VerifyErr)
			}
			if len(seq.PerRound) != seq.Rounds+1 {
				t.Fatalf("%s/%s: %d per-round entries for %d rounds", tc.name, s.Name(), len(seq.PerRound), seq.Rounds)
			}
			for _, workers := range []int{2, 8} {
				par, err := Run(s, tc.g, 0, RunOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.name, s.Name(), workers, err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("%s/%s: workers=1 and workers=%d results differ:\nseq: %+v\npar: %+v",
						tc.name, s.Name(), workers, seq, par)
				}
			}
		}
	}
}
