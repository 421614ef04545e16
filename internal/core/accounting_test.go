package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens (accounting.json, advice.json) from the current code")

// accountingRow is one pinned decoder run: every counter advice.Run
// reports, plus a digest of the output parent ports.
type accountingRow struct {
	Family       string `json:"family"`
	Scheme       string `json:"scheme"`
	Engine       string `json:"engine"`
	Rounds       int    `json:"rounds"`
	Messages     int64  `json:"messages"`
	MsgBits      int64  `json:"msg_bits"`
	MaxMsgBits   int    `json:"max_msg_bits"`
	Sent         int64  `json:"sent"`
	Undelivered  int64  `json:"undelivered"`
	Pulses       int    `json:"pulses"`
	SyncMessages int64  `json:"sync_messages"`
	SyncBits     int64  `json:"sync_bits"`
	VirtualTime  int64  `json:"virtual_time"`
	PortsSHA256  string `json:"ports_sha256"`
}

// portsDigest is the SHA-256 of the parent ports as little-endian int64s.
func portsDigest(ports []int) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range ports {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(p)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDecoderAccountingGolden pins the decoder's message accounting
// across versions: on every seeded family at n = 512 with distinct
// weights, the strict and adaptive decoders on the round engine and the
// strict decoder on the asynchronous engine (FIFO, through the
// α-synchronizer) must reproduce the committed rounds, messages, bits,
// pulses, synchronizer overhead, virtual time and parent ports exactly.
// Regenerate with go test ./internal/core -run TestDecoderAccountingGolden
// -update, only when a change is meant to alter them.
func TestDecoderAccountingGolden(t *testing.T) {
	if exact, _ := RoundBound(100_000); exact != 153 {
		t.Fatalf("RoundBound(10⁵) = %d, want 153", exact)
	}
	configs := []struct {
		engine string
		scheme Scheme
		opt    sim.Options
	}{
		{"sync", Scheme{}, sim.Options{}},
		{"sync", Scheme{Adaptive: true}, sim.Options{}},
		{"async-fifo", Scheme{}, sim.Options{Async: true, Scheduler: sim.FIFO{}}},
	}
	var got []accountingRow
	for _, name := range gen.Names() {
		g, err := gen.BuildSeeded(name, 512, 7, gen.SeededOptions{Weights: gen.WeightsDistinct})
		if err != nil {
			t.Fatal(err)
		}
		root := graph.NodeID(g.N() / 3)
		for _, c := range configs {
			res, err := advice.Run(c.scheme, g, root, c.opt)
			if err != nil {
				t.Fatalf("%s %s/%s: %v", name, c.scheme.Name(), c.engine, err)
			}
			if !res.Verified {
				t.Fatalf("%s %s/%s: not verified: %v", name, c.scheme.Name(), c.engine, res.VerifyErr)
			}
			got = append(got, accountingRow{
				Family: name, Scheme: c.scheme.Name(), Engine: c.engine,
				Rounds: res.Rounds, Messages: res.Messages, MsgBits: res.TotalBits,
				MaxMsgBits: res.MaxMsgBits, Sent: res.Sent, Undelivered: res.Undelivered,
				Pulses: res.Pulses, SyncMessages: res.SyncMessages, SyncBits: res.SyncBits,
				VirtualTime: res.VirtualTime, PortsSHA256: portsDigest(res.ParentPorts),
			})
		}
	}
	path := filepath.Join("testdata", "accounting.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []accountingRow
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d differs:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestDecoderAllocations bounds what one decode allocates: the strict
// decoder on a seeded random graph with n = 2·10⁴, on the round engine,
// must stay within 10% of its measured heap allocations, 21.8 MiB on a
// 2-core host (23.6 MiB under the race detector), with each node's
// per-port state in one 24-byte-a-port slice. Three per-port slices
// (far identifier, far port, window state) allocated 23.3 MiB
// (25.1 MiB). With a send buffer per node, and a schedule copy in each,
// it allocated 27.1 MiB (28.9 MiB), so they fail; so does a decoder
// that keeps a tree of its subtree at every node (50 MiB).
func TestDecoderAllocations(t *testing.T) {
	g, err := gen.BuildSeeded("random", 20_000, 5, gen.SeededOptions{Weights: gen.WeightsDistinct})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := BuildAdvice(g, 0, DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	nw := sim.NewNetwork(g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := nw.Run(Scheme{}.NewNode, adv, sim.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.ParentPorts[0] != -1 {
		t.Fatalf("root has parent port %d", res.ParentPorts[0])
	}
	limit := 1.1 * 21.8 * (1 << 20)
	if raceEnabled {
		limit = 1.1 * 23.6 * (1 << 20)
	}
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("decode allocated %.1f MiB", got/(1<<20))
	if got > limit {
		t.Fatalf("decode allocated %.1f MiB, limit %.1f MiB", got/(1<<20), limit/(1<<20))
	}
}

// TestOracleRetainedHeap bounds what one oracle run keeps and what it
// allocates: for a seeded random graph with n = 10⁵, built on one
// worker, the AdviceDetail must retain at most 6.5 MiB of heap once the
// run's garbage is collected, and the run may allocate at most
// 1.1 × 27.5 MiB. Writing each string once, into one arena of
// (Cap+1)-bit strings, and copying the final carriers into one slab
// retains 4.76 MiB on a 2-core host (the same under the race detector);
// the former layout, which also kept the packed arena, the final-bit
// array and the per-node counter, retained 9.73 MiB, so a second
// per-node arena fails. Holding one phase's node-level working set at a
// time, with 32-bit fragment IDs and union-find arrays, one 8-byte
// order word per edge and a live list compacted in place, the run
// allocates 27.50 MiB (27.51 under the race detector). With a 24-byte
// GlobalKey per edge and a double-buffered live list it allocated
// 34.37 MiB, and either alone fails; with every kept phase's partition
// resident as well, 55.63 MiB.
func TestOracleRetainedHeap(t *testing.T) {
	g := seeded(t, "random", 100_000, 7, gen.WeightsDistinct)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // and what the first collection left in sync.Pool caches
	runtime.ReadMemStats(&before)
	d, err := BuildAdviceDetailOpt(g, 0, DefaultCap, OracleOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	runtime.KeepAlive(d)
	const limit, allocLimit = 6.5 * (1 << 20), 1.1 * 27.5 * (1 << 20)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	allocated := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("oracle allocated %.2f MiB, retains %.2f MiB", allocated/(1<<20), retained/(1<<20))
	if retained > limit {
		t.Fatalf("AdviceDetail retains %.2f MiB, limit %.1f MiB", retained/(1<<20), limit/(1<<20))
	}
	if allocated > allocLimit {
		t.Fatalf("oracle allocated %.2f MiB, limit %.1f MiB", allocated/(1<<20), allocLimit/(1<<20))
	}
}
