package synch_test

import (
	"reflect"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/core"
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

// TestSyncAsyncParityAllFamilies is the acceptance property of the
// asynchronous subsystem: on every registered graph family, the
// unmodified Theorem 3 decoder under the α-synchronizer produces a
// verified MST on the event-driven engine, with payload traffic
// byte-comparable to the synchronous run it simulates — same number of
// simulated rounds (pulses), same payload message count, bit total,
// largest message, CONGEST(IDBits) violations and per-node outputs.
func TestSyncAsyncParityAllFamilies(t *testing.T) {
	for _, fam := range gen.Names() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			g := seeded(t, fam, 48, 7, gen.WeightsDistinct)
			congestB := sim.NewCostModel(g).IDBits
			syncRes, err := advice.Run(core.Scheme{}, g, 0, sim.Options{CongestB: congestB})
			if err != nil {
				t.Fatal(err)
			}
			if !syncRes.Verified {
				t.Fatalf("synchronous run not verified: %v", syncRes.VerifyErr)
			}
			asyncRes, err := advice.Run(core.Scheme{}, g, 0, sim.Options{
				Async:    true,
				Latency:  sim.UniformLatency{Seed: 13, Min: 1, Max: 9},
				CongestB: congestB,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !asyncRes.Verified {
				t.Fatalf("asynchronous run not verified: %v", asyncRes.VerifyErr)
			}
			if asyncRes.Pulses != syncRes.Rounds {
				t.Errorf("pulses = %d, want the synchronous round count %d", asyncRes.Pulses, syncRes.Rounds)
			}
			if asyncRes.Messages != syncRes.Messages {
				t.Errorf("payload messages = %d, sync run sent %d", asyncRes.Messages, syncRes.Messages)
			}
			if asyncRes.TotalBits != syncRes.TotalBits {
				t.Errorf("payload bits = %d, sync run %d", asyncRes.TotalBits, syncRes.TotalBits)
			}
			if asyncRes.MaxMsgBits != syncRes.MaxMsgBits {
				t.Errorf("max payload message = %d bits, sync run %d", asyncRes.MaxMsgBits, syncRes.MaxMsgBits)
			}
			if syncRes.CongestViolations == 0 || asyncRes.CongestViolations != syncRes.CongestViolations {
				t.Errorf("CONGEST(%d) violations = %d, sync run %d (want equal and nonzero)",
					congestB, asyncRes.CongestViolations, syncRes.CongestViolations)
			}
			if !reflect.DeepEqual(asyncRes.ParentPorts, syncRes.ParentPorts) {
				t.Error("asynchronous outputs differ from the synchronous run")
			}
			if asyncRes.SyncMessages == 0 && g.N() > 1 {
				t.Error("synchronizer reported zero overhead messages")
			}
			if asyncRes.Sent != asyncRes.Messages+asyncRes.SyncMessages {
				t.Errorf("conservation: sent %d != %d payload + %d control",
					asyncRes.Sent, asyncRes.Messages, asyncRes.SyncMessages)
			}
			if asyncRes.VirtualTime <= 0 || asyncRes.Steps <= 0 {
				t.Errorf("virtual time %d / steps %d not recorded", asyncRes.VirtualTime, asyncRes.Steps)
			}
		})
	}
}

// TestParityUnderAdversarialSchedulers repeats the parity check under
// every delivery policy: correctness of the synchronized decoder must
// not depend on message ordering.
func TestParityUnderAdversarialSchedulers(t *testing.T) {
	schedulers := map[string]sim.Scheduler{
		"fifo":     sim.FIFO{},
		"lifo":     sim.LIFO{},
		"maxdelay": sim.MaxDelay{Delay: 11},
	}
	for _, famName := range []string{"random", "expander", "grid", "lollipop"} {
		g := seeded(t, famName, 64, 3, gen.WeightsDistinct)
		syncRes, err := advice.Run(core.Scheme{}, g, 0, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, sched := range schedulers {
			asyncRes, err := advice.Run(core.Scheme{}, g, 0, sim.Options{
				Async:     true,
				Latency:   sim.UniformLatency{Seed: 77, Min: 1, Max: 16},
				Scheduler: sched,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", famName, name, err)
			}
			if !asyncRes.Verified {
				t.Errorf("%s/%s: not verified: %v", famName, name, asyncRes.VerifyErr)
			}
			if asyncRes.Pulses != syncRes.Rounds || asyncRes.Messages != syncRes.Messages {
				t.Errorf("%s/%s: pulses %d / payloads %d, sync %d / %d",
					famName, name, asyncRes.Pulses, asyncRes.Messages, syncRes.Rounds, syncRes.Messages)
			}
			if !reflect.DeepEqual(asyncRes.ParentPorts, syncRes.ParentPorts) {
				t.Errorf("%s/%s: outputs differ from the synchronous run", famName, name)
			}
		}
	}
}

// TestAsyncDeterministicForAnyWorkerCount pins the acceptance bar:
// byte-identical advice.Result (including virtual-time and overhead
// accounting) for any Workers setting.
func TestAsyncDeterministicForAnyWorkerCount(t *testing.T) {
	g := seeded(t, "random", 128, 21, gen.WeightsDistinct)
	var ref *advice.Result
	for _, workers := range []int{1, 2, 3, 4} {
		res, err := advice.Run(core.Scheme{}, g, 0, sim.Options{
			Async:     true,
			Workers:   workers,
			Latency:   sim.UniformLatency{Seed: 4, Min: 1, Max: 12},
			Scheduler: sim.LIFO{},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d: asynchronous result diverges:\nseq: %+v\ngot: %+v", workers, ref, res)
		}
	}
}

// TestAsyncRejectsPulseDrivenSchemes: the adaptive decoder depends on
// the synchronous engine's idealized quiescence detection.
func TestAsyncRejectsPulseDrivenSchemes(t *testing.T) {
	g := seeded(t, "ring", 16, 1, gen.WeightsDistinct)
	if _, err := advice.Run(core.Scheme{Adaptive: true}, g, 0, sim.Options{Async: true}); err == nil {
		t.Fatal("async run of a pulse-driven scheme must be rejected")
	}
}

// TestLatencySeedChangesTiming: different seeds give different virtual
// times (the latency model is really wired in) while outputs stay
// verified and payload traffic stays identical.
func TestLatencySeedChangesTiming(t *testing.T) {
	g := seeded(t, "random", 96, 5, gen.WeightsDistinct)
	times := map[int64]int64{}
	var payload int64 = -1
	for _, seed := range []int64{1, 2, 3} {
		res, err := advice.Run(core.Scheme{}, g, 0, sim.Options{
			Async:   true,
			Latency: sim.UniformLatency{Seed: seed, Min: 1, Max: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("seed %d: not verified", seed)
		}
		times[res.VirtualTime] = seed
		if payload == -1 {
			payload = res.Messages
		} else if res.Messages != payload {
			t.Fatalf("seed %d: payload count changed to %d (was %d)", seed, res.Messages, payload)
		}
	}
	if len(times) < 2 {
		t.Fatalf("all seeds produced the same virtual time: %v", times)
	}
}
