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
// decoder on a seeded random graph with n = 2·10⁴ must stay within 38 MiB
// of heap allocations (29.4 MiB measured on a 2-core host, 32.8 MiB under
// the race detector). A decoder that keeps a tree of its subtree at every
// node allocated 50 MiB here, so it fails.
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
	const limit = 38 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("decode allocated %.1f MiB", float64(got)/(1<<20))
	if got > limit {
		t.Fatalf("decode allocated %.1f MiB, limit %d MiB", float64(got)/(1<<20), limit>>20)
	}
}
