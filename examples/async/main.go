// Asynchronous execution: run the paper's 12-bit-advice scheme on a real
// asynchronous network — per-message delivery delays drawn from a seeded
// latency model, with adversarial delivery policies — and compare it
// against the synchronous run it simulates.
//
// The paper is stated in the synchronous model, but its claims are about
// information, not timing: the α-synchronizer (internal/synch, DESIGN.md
// §2.7) replays the unmodified decoder on the event-driven engine, and
// the engine books the price of simulating synchrony — acks, safety
// announcements, pulse tags — separately from the algorithm's own
// traffic, so the comparison stays honest.
//
//	go run ./examples/async
package main

import (
	"fmt"
	"log"

	"mstadvice"
)

func main() {
	const n = 128
	g, err := mstadvice.GenSeeded("random", n, 7, mstadvice.GenSeededOptions{})
	if err != nil {
		log.Fatal(err)
	}
	scheme := mstadvice.ConstantAdvice()

	// The synchronous reference: the model the paper is stated in.
	syncRes, err := mstadvice.Run(scheme, g, 0, mstadvice.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synchronous reference on n=%d, m=%d:\n", syncRes.N, syncRes.M)
	fmt.Printf("  rounds %d, payload %d messages / %d bits, verified %v\n\n",
		syncRes.Rounds, syncRes.Messages, syncRes.TotalBits, syncRes.Verified)

	// The same scheme, same advice, same decoder — on an asynchronous
	// network under three delivery policies. Payload columns must match
	// the synchronous run exactly; only timing and overhead may differ.
	policies := []struct {
		name  string
		sched mstadvice.AsyncScheduler
	}{
		{"fifo (default links)", mstadvice.SchedulerFIFO()},
		{"lifo (overtaking adversary)", mstadvice.SchedulerLIFO()},
		{"maxdelay (slowest-link adversary)", mstadvice.SchedulerMaxDelay(16)},
	}
	fmt.Println("asynchronous executions (uniform latency 1..16, seed 42):")
	for _, p := range policies {
		res, err := mstadvice.Run(scheme, g, 0, mstadvice.RunOptions{
			Async:     true,
			Latency:   mstadvice.UniformLatency{Seed: 42, Min: 1, Max: 16},
			Scheduler: p.sched,
		})
		if err != nil {
			log.Fatal(err)
		}
		parity := res.Verified &&
			res.Pulses == syncRes.Rounds &&
			res.Messages == syncRes.Messages &&
			res.TotalBits == syncRes.TotalBits
		fmt.Printf("  %-34s virtual time %5d, %d simulated rounds\n", p.name, res.VirtualTime, res.Pulses)
		fmt.Printf("  %-34s payload %d msgs / %d bits; synchronizer overhead %d msgs / %d bits\n",
			"", res.Messages, res.TotalBits, res.SyncMessages, res.SyncBits)
		fmt.Printf("  %-34s exact parity with the synchronous run: %v\n\n", "", parity)
	}
}
