package experiments

import (
	"reflect"
	"runtime"
	"time"

	"mstadvice/internal/core"
	"mstadvice/internal/sim"
)

// asyncSchedulers is the delivery-policy sweep of the asynchronous
// benchmark: the default FIFO links, the overtaking LIFO adversary and
// the slowest-link adversary (see sim.Scheduler and DESIGN.md §2.7).
func asyncSchedulers() []sim.Scheduler {
	return []sim.Scheduler{sim.FIFO{}, sim.LIFO{}, sim.MaxDelay{Delay: 11}}
}

// AsyncBench measures the asynchronous execution mode (DESIGN.md §2.7):
// the Theorem 3 decoder under the α-synchronizer on the event-driven
// engine, against its own synchronous run as the reference.
//
// Row kind "async", one row per (family, scheduler). Columns:
//
//   - Rounds is the number of simulated rounds (synchronizer pulses) —
//     by construction equal to the synchronous round count;
//   - VirtualTime is the event-driven completion time under the row's
//     latency model and delivery policy (the "rounds vs virtual time"
//     comparison);
//   - Messages/MsgBits are payload traffic, byte-comparable with the
//     synchronous run; SyncMessages/SyncBits are the α-synchronizer's
//     separately-booked overhead (acks, safety announcements, pulse
//     tags);
//   - Verified certifies full parity with the synchronous reference:
//     verified MST, equal pulse/round count, equal payload counts and
//     identical per-node outputs.
//
// Every registered family runs under FIFO at the sweep size; the random
// family additionally sweeps all three schedulers so the adversarial
// policies leave a measured trace. Sizes come from the config; nil
// means n = 256 for the family sweep and n = 1024 for the scheduler
// sweep.
func AsyncBench(c Config) []BenchResult {
	famN, schedN := 256, 1024
	if c.Sizes != nil {
		famN = c.Sizes[0]
		schedN = c.Sizes[len(c.Sizes)-1]
	}
	var out []BenchResult
	for _, fam := range c.allFamilies() {
		out = append(out, asyncRow(c, fam, famN, sim.FIFO{}))
	}
	for _, sched := range asyncSchedulers() {
		out = append(out, asyncRow(c, "random", schedN, sched))
	}
	return out
}

// asyncRow runs the sync reference and one measured async execution.
func asyncRow(c Config, fam string, n int, sched sim.Scheduler) BenchResult {
	g := c.graph(fam, n, int64(n)+31)
	syncRes := mustRun(core.Scheme{}, g, 0, sim.Options{})

	// Workers: 1 matches the recorded Workers column (results are
	// byte-identical for any worker count; wall/alloc baselines must be
	// measured under the configuration the row claims).
	opt := sim.Options{
		Async:     true,
		Workers:   1,
		Latency:   sim.UniformLatency{Seed: c.Seed + 101, Min: 1, Max: 8},
		Scheduler: sched,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	asyncRes := mustRun(core.Scheme{}, g, 0, opt)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	parity := asyncRes.Verified &&
		asyncRes.Pulses == syncRes.Rounds &&
		asyncRes.Messages == syncRes.Messages &&
		asyncRes.MsgBits == syncRes.MsgBits &&
		reflect.DeepEqual(asyncRes.ParentPorts, syncRes.ParentPorts)

	return BenchResult{
		Kind:         "async",
		Scheme:       "core+alpha/" + sched.Name(),
		Family:       fam,
		N:            g.N(),
		M:            g.M(),
		Workers:      1,
		Rounds:       asyncRes.Pulses,
		Messages:     asyncRes.Messages,
		MsgBits:      asyncRes.MsgBits,
		VirtualTime:  asyncRes.VirtualTime,
		SyncMessages: asyncRes.SyncMessages,
		SyncBits:     asyncRes.SyncBits,
		WallNS:       wall.Nanoseconds(),
		Allocs:       after.Mallocs - before.Mallocs,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		Verified:     parity,
	}
}
