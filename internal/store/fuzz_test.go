package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
)

// FuzzDecode asserts the codec's safety contract: arbitrary bytes never
// panic the decoder, and any input it does accept is a structurally valid
// snapshot that re-encodes to the same bytes (the format has a single
// canonical encoding, so accept ⇒ fixed point). Almost every mutation
// fails the CRC footer, so each input is also decoded with its footer
// recomputed, which carries the mutation past the checksum to the
// section parsers under the same contract.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	g := seeded(f, "random", 24, 1, gen.WeightsDistinct)
	blob, err := Encode(&Snapshot{Graph: g, Root: 3, Cap: 11})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for cut := 0; cut < len(blob); cut += 7 {
		f.Add(blob[:cut])
	}
	f.Add(resealed(blob, len(magic)+2, 0x40))
	// The committed goldens carry what Encode's seeds above do not: one
	// snapshot per format version, and the version-3 tier section.
	for _, name := range []string{"v1-golden.mstadv", "v2-golden.mstadv", "v3-golden.mstadv"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	f.Add(paddedSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) > 4 {
			checkDecode(t, resealed(data, 0, 0))
		}
	})
}

// checkDecode holds one input to FuzzDecode's contract.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	snap, err := Decode(data)
	if err != nil {
		return
	}
	if snap.Graph == nil {
		t.Fatal("Decode returned a nil graph without error")
	}
	if err := reference.Validate(snap.Graph); err != nil {
		t.Fatalf("Decode accepted an invalid graph: %v", err)
	}
	if snap.Advice != nil && len(snap.Advice) != snap.Graph.N() {
		t.Fatalf("Decode accepted %d advice strings for %d nodes", len(snap.Advice), snap.Graph.N())
	}
	if snap.Graph.N() > 0 && (snap.Root < 0 || int(snap.Root) >= snap.Graph.N()) {
		t.Fatalf("Decode accepted out-of-range root %d", snap.Root)
	}
	again, err := Encode(snap)
	if err != nil {
		t.Fatalf("re-encoding an accepted snapshot failed: %v", err)
	}
	if len(data) > 7 && data[7] == magicV1[7] {
		// Legacy inputs re-encode to the current version, so the fixed
		// point is semantic: decoding the re-encoding must reproduce
		// the snapshot (with the problem pinned to mst).
		if snap.Problem != "mst" {
			t.Fatalf("legacy snapshot decoded to problem %q", snap.Problem)
		}
		snap2, err := Decode(again)
		if err != nil {
			t.Fatalf("decoding the re-encoded legacy snapshot failed: %v", err)
		}
		if snap2.Problem != snap.Problem || snap2.Root != snap.Root || snap2.Cap != snap.Cap ||
			snap2.Graph.N() != snap.Graph.N() || snap2.Graph.M() != snap.Graph.M() {
			t.Fatalf("legacy round-trip changed the snapshot")
		}
		return
	}
	if string(again) != string(data) {
		t.Fatalf("accepted input is not the canonical encoding (%d vs %d bytes)", len(data), len(again))
	}
}

// FuzzDecodeGraphRecords drives graph.FromEdgeList through the decoder with
// hostile edge records: ports and endpoints are attacker-controlled, so
// this is the codec's main injection surface. Each input flips one byte
// of a snapshot's body and reseals the CRC footer, so the mutation
// reaches the record parser and the graph builder instead of failing the
// checksum. An accepted snapshot must hold valid graphs whose adjacency
// agrees with every edge record, and must re-encode to its own bytes.
func FuzzDecodeGraphRecords(f *testing.F) {
	tri := reference.MustBuild(graph.NewBuilder(3).AddEdge(0, 1, 5).AddEdge(1, 2, 3).AddEdge(0, 2, 4))
	blob, err := Encode(&Snapshot{Graph: tri, Root: 0})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, uint8(9), uint8(0x10))
	f.Add(blob, uint8(14), uint8(0xFF))
	// The triangle's three edge records are five one-byte varints each
	// (zigzag ΔU, V, PU, PV, W), followed by the advice flag and the tier
	// count. Each hostile seed rewrites one field, and the graph builder
	// must name the defect.
	field := func(edge, k int) uint8 { return uint8(len(blob) - 4 - 2 - 15 + 5*edge + k) }
	hostile := []struct {
		pos, xor uint8
		want     string
	}{
		{field(2, 2), 0x01, "graph: edge 2 claims port 0 of node 0, which an earlier edge holds"}, // PU 1 → 0
		{field(1, 2), 0x03, "graph: edge 1 port out of range: 2@1 / 0@2"},                         // PU 1 → 2 = deg(1)
		{field(0, 1), 0x02, "graph: edge 0 endpoint out of range: 0-3 (n=3)"},                     // V 1 → 3 = n
	}
	for _, h := range hostile {
		if _, err := Decode(resealed(blob, int(h.pos), h.xor)); err == nil || err.Error() != h.want {
			f.Fatalf("seed (%d, %#x): got %v, want %q", h.pos, h.xor, err, h.want)
		}
		f.Add(blob, h.pos, h.xor)
	}
	f.Fuzz(func(t *testing.T, data []byte, pos, xor uint8) {
		if len(data) <= 4 {
			return
		}
		mutated := resealed(data, int(pos), xor)
		snap, err := Decode(mutated)
		if err != nil {
			return
		}
		graphs := []*graph.Graph{snap.Graph}
		for _, tier := range snap.Tiers {
			graphs = append(graphs, tier.Graph)
		}
		for _, g := range graphs {
			if err := reference.Validate(g); err != nil {
				t.Fatalf("Decode accepted an invalid graph: %v", err)
			}
			for ei, e := range g.Edges() {
				for _, end := range [2]struct {
					u, v   graph.NodeID
					pu, pv int32
				}{{e.U, e.V, e.PU, e.PV}, {e.V, e.U, e.PV, e.PU}} {
					h := g.HalfAt(end.u, int(end.pu))
					if h.Edge != graph.EdgeID(ei) || h.To != end.v || g.DstPort(end.u, int(end.pu)) != int(end.pv) {
						t.Fatalf("edge %d %+v: port %d of node %d reads %+v, far port %d",
							ei, e, end.pu, end.u, h, g.DstPort(end.u, int(end.pu)))
					}
				}
			}
		}
		if snap.Version == 0 {
			return // legacy input re-encodes to the current version
		}
		again, err := Encode(snap)
		if err != nil {
			t.Fatalf("re-encoding an accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(again, mutated) {
			t.Fatalf("accepted input is not the canonical encoding (%d vs %d bytes)", len(mutated), len(again))
		}
	})
}

// resealed returns a copy of blob with the body byte at pos (modulo the
// body length) XORed with xor and the CRC footer recomputed; xor 0 only
// reseals.
func resealed(blob []byte, pos int, xor byte) []byte {
	out := append([]byte(nil), blob...)
	body := out[:len(out)-4]
	body[pos%len(body)] ^= xor
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// FuzzDecodeNext holds the shared decode to Decode. The input builds
// prev (reference.FuzzGraph), then a valid successor by one byte-chosen
// edit (successor), with or without advice, and encodes it; one more
// byte may flip a body byte and reseal the CRC, so invalid records reach
// the decoder too. DecodeNext(blob, prev) must fail exactly when
// Decode(blob) does. On success the two snapshots must hold the same
// identifiers, edge records, ports at every node and advice, and
// re-encode to the same bytes; and the graph must share prev's CSR and
// identifiers exactly when its identifiers, endpoints and ports are
// prev's. The committed seeds under testdata/fuzz/FuzzDecodeNext are a
// weight-only successor, a port swap, a changed identifier, one edge
// fewer, and two flipped bytes: one that names a duplicate edge and one
// that moves an endpoint.
func FuzzDecodeNext(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		prev, root := reference.FuzzGraph(next)
		snap := &Snapshot{Graph: successor(prev, next), Root: root, Cap: next() % 16}
		if next()%2 == 1 {
			snap.Advice = fuzzAdvice(prev.N(), next)
		}
		blob, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		if next()%2 == 1 {
			blob = resealed(blob, next()<<8|next(), byte(next()))
		}
		want, wantErr := Decode(blob)
		got, err := DecodeNext(blob, prev)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeNext error %v, Decode error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		assertSnapshotsEqual(t, "DecodeNext", want, got)
		a, errA := Encode(want)
		b, errB := Encode(got)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("re-encodings differ (errors %v, %v)", errA, errB)
		}
		g := got.Graph
		same := slices.Equal(g.IDs(), prev.IDs()) && g.M() == prev.M()
		for e := 0; same && e < g.M(); e++ {
			x, y := g.Edge(graph.EdgeID(e)), prev.Edge(graph.EdgeID(e))
			same = x.U == y.U && x.V == y.V && x.PU == y.PU && x.PV == y.PV
		}
		if ids, csr := sharesStorage(g, prev); ids != same || csr != same {
			t.Fatalf("identifiers, endpoints and ports equal: %v; shares identifiers %v, CSR %v", same, ids, csr)
		}
	})
}

// successor returns a valid successor of prev by one edit the next byte
// chooses: new weights on every edge, two ports swapped at one node, one
// identifier changed, or one edge deleted. An edit the graph cannot take
// (no node of degree 2, every edge a bridge) gives new weights instead.
func successor(prev *graph.Graph, next func() int) *graph.Graph {
	n, m := prev.N(), prev.M()
	edges, ids := slices.Clone(prev.Edges()), slices.Clone(prev.IDs())
	switch next() % 4 {
	case 1:
		for k := range n {
			u := graph.NodeID((next() + k) % n)
			d := prev.Degree(u)
			if d < 2 {
				continue
			}
			p := next() % d
			q := (p + 1 + next()%(d-1)) % d
			port := func(e graph.EdgeID, to int) {
				if rec := &edges[e]; rec.U == u {
					rec.PU = int32(to)
				} else {
					rec.PV = int32(to)
				}
			}
			port(prev.Ports(u)[p], q)
			port(prev.Ports(u)[q], p)
			return mustFromEdgeList(n, ids, edges)
		}
	case 2:
		u := next() % n
		id := int64(next()) - 128
		for slices.Contains(ids, id) {
			id++
		}
		ids[u] = id
		return mustFromEdgeList(n, ids, edges)
	case 3:
		first := next()
		for k := range m {
			g := prev.Clone()
			if g.ApplyBatch(graph.Batch{Deletions: []graph.EdgeID{graph.EdgeID((first + k) % m)}}) == nil {
				return g
			}
		}
	}
	for i := range edges {
		edges[i].W = graph.Weight(1 + next()%8)
	}
	return mustFromEdgeList(n, ids, edges)
}

func mustFromEdgeList(n int, ids []int64, edges []graph.Edge) *graph.Graph {
	g, err := graph.FromEdgeList(n, ids, edges, 1)
	if err != nil {
		panic(err)
	}
	return g
}

// fuzzAdvice reads n advice strings of 0 to 69 bits, so some cross the
// 64 bits a string holds inline.
func fuzzAdvice(n int, next func() int) []*bitstring.BitString {
	advice := make([]*bitstring.BitString, n)
	for u := range advice {
		bits := next() % 70
		s := bitstring.New(bits)
		for s.Len() < bits {
			w := min(8, bits-s.Len())
			s.AppendUint(uint64(next())&(1<<w-1), w)
		}
		advice[u] = s
	}
	return advice
}

// sharesStorage reports whether a and b share their identifier array
// and their CSR, read through the first node with ports in both.
func sharesStorage(a, b *graph.Graph) (ids, csr bool) {
	if a.N() == 0 || b.N() == 0 {
		return false, false
	}
	ids = &a.IDs()[0] == &b.IDs()[0]
	for u := graph.NodeID(0); int(u) < min(a.N(), b.N()); u++ {
		if a.Degree(u) > 0 && b.Degree(u) > 0 {
			return ids, &a.Ports(u)[0] == &b.Ports(u)[0]
		}
	}
	return ids, false
}
