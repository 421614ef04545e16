package mstadvice

// One benchmark per reproduction experiment (E1–E13, DESIGN.md §3): each
// iteration regenerates the experiment's tables at a bench-sized
// configuration, exercising the oracle, the simulator and the verifier end
// to end. cmd/experiments prints the same tables at full size. The
// Benchmark*Scale benches isolate the main scheme's and the engine's raw
// cost.

import (
	"runtime"
	"testing"

	"mstadvice/internal/experiments"
)

var benchCfg = experiments.Config{
	Sizes:    []int{32, 128},
	Families: []string{"path", "random"},
	Seed:     42,
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run := experiments.Registry()[id]
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := run(benchCfg)
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkE1TrivialScheme regenerates E1: the (⌈log n⌉, 0)-scheme profile.
func BenchmarkE1TrivialScheme(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkE2LowerBound regenerates E2: the Theorem 1 pigeonhole tables.
func BenchmarkE2LowerBound(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkE3OneRound regenerates E3: Theorem 2's constant-average profile.
func BenchmarkE3OneRound(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkE4ConstantAdvice regenerates E4: the main theorem's (12, ~9 log n)
// profile.
func BenchmarkE4ConstantAdvice(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkE5Tradeoff regenerates E5: rounds vs n for all five schemes.
func BenchmarkE5Tradeoff(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkE6Decomposition regenerates E6: Lemma 1/2 and Claim 1 measurements.
func BenchmarkE6Decomposition(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkE7CapAblation regenerates E7: the per-node cap sweep.
func BenchmarkE7CapAblation(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkE8Congest regenerates E8: the message-size accounting.
func BenchmarkE8Congest(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9PhaseDynamics regenerates E9: per-phase fragment statistics.
func BenchmarkE9PhaseDynamics(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkE10RoundProfile regenerates E10: per-window communication
// profile of the main scheme.
func BenchmarkE10RoundProfile(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkE11Churn regenerates E11: sensitivity, churn and link
// failures on dynamic networks.
func BenchmarkE11Churn(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkE12Topology regenerates E12: the topology-recognition problem.
func BenchmarkE12Topology(b *testing.B) { benchExperiment(b, "e12") }

// BenchmarkE13Hier regenerates E13: the hierarchical advice frontier.
func BenchmarkE13Hier(b *testing.B) { benchExperiment(b, "e13") }

// BenchmarkConstantAdviceScale runs the Theorem 3 scheme alone on a larger
// instance: oracle + O(log n)-round simulation + verification.
func BenchmarkConstantAdviceScale(b *testing.B) {
	g := seeded(b, "random", 2048, 1, WeightsDistinct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(ConstantAdvice(), g, 0, RunOptions{})
		if err != nil || !res.Verified {
			b.Fatalf("%v / %v", err, res.VerifyErr)
		}
	}
}

// BenchmarkOneRoundScale runs the Theorem 2 scheme alone at scale.
func BenchmarkOneRoundScale(b *testing.B) {
	g := seeded(b, "random", 4096, 1, WeightsDistinct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(OneRound(), g, 0, RunOptions{})
		if err != nil || !res.Verified {
			b.Fatalf("%v / %v", err, res.VerifyErr)
		}
	}
}

// BenchmarkEngineParallelism compares sequential and parallel round
// execution of the simulator on the same workload, at the congested-
// clique-ish scale (n >= 10 000) the slot-based router was built for. It
// reports allocations per simulated round alongside the standard metrics
// (the seed engine measured ~30 000 allocs/round here; the slot router
// holds it under half that).
func BenchmarkEngineParallelism(b *testing.B) {
	g := seeded(b, "random", 10000, 2, WeightsDistinct)
	for _, mode := range []struct {
		name string
		opt  RunOptions
	}{
		{"sequential", RunOptions{Workers: 1}},
		{"parallel", RunOptions{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			rounds := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				res, err := Run(ConstantAdvice(), g, 0, mode.opt)
				if err != nil || !res.Verified {
					b.Fatalf("%v / %v", err, res.VerifyErr)
				}
				rounds += res.Rounds
			}
			runtime.ReadMemStats(&after)
			if rounds > 0 {
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(rounds), "allocs/round")
			}
		})
	}
}
