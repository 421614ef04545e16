package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
	"mstadvice/internal/store"
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

// makeSnapshot builds a random connected instance with its oracle run.
func makeSnapshot(t testing.TB, n, m int, seed int64) *store.Snapshot {
	t.Helper()
	g := seeded(t, "random", n, uint64(seed), gen.WeightsDistinct)
	adviceBits, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	return &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adviceBits}
}

func TestRegisterQueryDecodeVerify(t *testing.T) {
	svc := New()
	snap := makeSnapshot(t, 128, 384, 1)
	if err := svc.Register("g1", snap); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("g1", snap); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if _, err := svc.Advice("nope", 0); err == nil {
		t.Fatal("query of unknown graph succeeded")
	}
	if _, err := svc.Advice("g1", 10_000); err == nil {
		t.Fatal("query of out-of-range node succeeded")
	}
	for u := 0; u < snap.Graph.N(); u++ {
		reply, err := svc.Advice("g1", u)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Epoch != 0 || reply.Bits != snap.Advice[u].String() {
			t.Fatalf("node %d: reply %+v does not match the stored advice %s", u, reply, snap.Advice[u])
		}
	}
	sess, err := svc.DecodeSession(context.Background(), "g1")
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Verified || sess.Root != 0 {
		t.Fatalf("decode session not verified: %+v", sess)
	}
	ref, err := mst.Kruskal(snap.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if want := snap.Graph.TotalWeight(ref); sess.MSTWeight != want {
		t.Fatalf("decoded MST weight %d, reference %d", sess.MSTWeight, want)
	}
	// The session is cached per epoch: a second call must not re-decode.
	before := svc.StatsNow().Decodes
	again, err := svc.DecodeSession(context.Background(), "g1")
	if err != nil || !again.Verified {
		t.Fatalf("second DecodeSession = (%+v, %v), want a verified session", again, err)
	}
	if got := svc.StatsNow().Decodes; got != before {
		t.Fatalf("second DecodeSession re-decoded: %d -> %d", before, got)
	}
	if !svc.Drop("g1") {
		t.Fatal("Drop of a registered graph failed")
	}
	if svc.Drop("g1") {
		t.Fatal("Drop of a dropped graph succeeded")
	}
}

func TestRegisterWithoutAdviceRunsOracle(t *testing.T) {
	svc := New()
	g := seeded(t, "grid", 6*6, 2, gen.WeightsDistinct)
	if err := svc.Register("bare", &store.Snapshot{Graph: g, Root: 3}); err != nil {
		t.Fatal(err)
	}
	want, err := core.BuildAdvice(g, 3, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		reply, err := svc.Advice("bare", u)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Bits != want[u].String() {
			t.Fatalf("node %d: served %q, oracle says %q", u, reply.Bits, want[u])
		}
	}
}

func TestUpdatePublishesNewEpoch(t *testing.T) {
	svc := New()
	snap := makeSnapshot(t, 96, 288, 3)
	if err := svc.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	// Delete a non-tree edge via the service and check the published
	// epoch against a fresh oracle run on the patched graph.
	sessBefore, err := svc.DecodeSession(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	inTree := make([]bool, snap.Graph.M())
	for u, p := range sessBefore.ParentPorts {
		if p >= 0 {
			inTree[snap.Graph.HalfAt(graph.NodeID(u), p).Edge] = true
		}
	}
	target := graph.EdgeID(-1)
	for e := 0; e < snap.Graph.M(); e++ {
		if !inTree[e] {
			target = graph.EdgeID(e)
			break
		}
	}
	if target < 0 {
		t.Fatal("no non-tree edge")
	}
	patched := snap.Graph.Clone()
	if err := patched.ApplyBatch(graph.Batch{Deletions: []graph.EdgeID{target}}); err != nil {
		t.Fatal(err)
	}
	want, err := core.BuildAdvice(patched, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}

	reply, err := svc.Update(context.Background(), "g", graph.Batch{Deletions: []graph.EdgeID{target}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Epoch != 1 {
		t.Fatalf("epoch after first update = %d, want 1", reply.Epoch)
	}
	for u := range want {
		got, err := svc.Advice("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != 1 || got.Bits != want[u].String() {
			t.Fatalf("node %d after update: %+v, oracle says %q", u, got, want[u])
		}
	}
	// Decode of the new epoch re-runs and verifies.
	sess, err := svc.DecodeSession(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Seq != 1 || !sess.Verified {
		t.Fatalf("post-update session: %+v", sess)
	}
	// The canceled-update path leaves the epoch alone.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Update(canceled, "g", graph.Batch{Deletions: []graph.EdgeID{0}}); err == nil {
		t.Fatal("canceled update succeeded")
	}
	if info, _ := svc.InfoFor("g"); info.Epoch != 1 {
		t.Fatalf("canceled update moved the epoch to %d", info.Epoch)
	}
}

// TestServiceRoundTrip100k is the acceptance test of the serving layer:
// an n=10⁵ oracle run saved to disk, reloaded through the store, and
// served by the service must answer at least 100k advice queries per
// second across 4 workers, every answer byte-identical to a fresh oracle
// run on the same graph.
func TestServiceRoundTrip100k(t *testing.T) {
	const n = 100_000
	g := seeded(t, "random", n, 42, gen.WeightsDistinct)
	fresh, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.mstadv")
	if err := store.Save(path, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: fresh}); err != nil {
		t.Fatal(err)
	}
	snap, err := store.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := New()
	if err := svc.Register("big", snap); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const queriesPerWorker = 50_000
	var bad atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesPerWorker; i++ {
				node := (w*queriesPerWorker + i*7919) % n
				bits, _, err := svc.AdviceBits("big", node)
				if err != nil || !bits.Equal(fresh[node]) {
					bad.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if bad.Load() != 0 {
		t.Fatalf("%d workers saw advice that differs from a fresh oracle run", bad.Load())
	}
	qps := float64(workers*queriesPerWorker) / elapsed.Seconds()
	t.Logf("served %d queries across %d workers in %v (%.0f queries/sec)",
		workers*queriesPerWorker, workers, elapsed, qps)
	if qps < 100_000 {
		t.Fatalf("throughput %.0f queries/sec below the 100k/sec acceptance bar", qps)
	}
}

// TestConcurrentReadersDuringUpdate overlaps a write (batched dynamic
// update) with a storm of readers and checks the copy-on-write epoch
// contract under -race: every reply is byte-identical to the oracle
// advice OF ITS EPOCH — readers racing the swap see either the old or
// the new state, never a mix — and reads keep completing while the
// writer is busy (readers never block on the update).
func TestConcurrentReadersDuringUpdate(t *testing.T) {
	const n = 4096
	svc := New()
	snap := makeSnapshot(t, n, 3*n, 7)
	g0 := snap.Graph.Clone()
	if err := svc.Register("live", snap); err != nil {
		t.Fatal(err)
	}
	// Reference advice for epoch 0 and epoch 1. The update perturbs one
	// non-tree edge weight within tolerance (the advisor's fast path).
	ref := [2][]*bitstring.BitString{snap.Advice, nil}
	// Pick the update so it provably changes at least the graph weights.
	target := graph.EdgeID(-1)
	tree, err := mst.Kruskal(g0)
	if err != nil {
		t.Fatal(err)
	}
	inTree := make([]bool, g0.M())
	for _, e := range tree {
		inTree[e] = true
	}
	for e := 0; e < g0.M(); e++ {
		if !inTree[e] {
			target = graph.EdgeID(e)
			break
		}
	}
	newW := g0.MaxWeight() + 100
	patched := g0.Clone()
	if err := patched.ApplyBatch(graph.Batch{Weights: []graph.WeightUpdate{{Edge: target, W: newW}}}); err != nil {
		t.Fatal(err)
	}
	if ref[1], err = core.BuildAdvice(patched, 0, core.DefaultCap); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	stop := make(chan struct{})
	readsDuringUpdate := new(atomic.Int64)
	updating := new(atomic.Bool)
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				node := rng.Intn(n)
				bits, epoch, err := svc.AdviceBits("live", node)
				if err != nil {
					errCh <- err
					return
				}
				if epoch > 1 {
					errCh <- fmt.Errorf("impossible epoch %d at node %d", epoch, node)
					return
				}
				if !bits.Equal(ref[epoch][node]) {
					errCh <- fmt.Errorf("advice of node %d does not match its epoch %d reference", node, epoch)
					return
				}
				if updating.Load() {
					readsDuringUpdate.Add(1)
				}
			}
		}(r)
	}
	// Let readers spin up, then update. The first Update pays the lazy
	// advisor build (a full oracle + sensitivity run at n=4096), which
	// gives the readers a long in-progress write window to overlap with.
	time.Sleep(10 * time.Millisecond)
	updating.Store(true)
	reply, err := svc.Update(context.Background(), "live",
		graph.Batch{Weights: []graph.WeightUpdate{{Edge: target, W: newW}}})
	updating.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Epoch != 1 {
		t.Fatalf("update published epoch %d, want 1", reply.Epoch)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("reader failed: %v", err)
	default:
	}
	if got := readsDuringUpdate.Load(); got == 0 {
		t.Fatal("no reads completed while the writer was busy — readers blocked on the update")
	} else {
		t.Logf("%d reads completed during the in-flight update", got)
	}
	// After the dust settles every node serves epoch-1 advice.
	for u := 0; u < n; u++ {
		bits, epoch, err := svc.AdviceBits("live", u)
		if err != nil || epoch != 1 || !bits.Equal(ref[1][u]) {
			t.Fatalf("node %d after update: epoch %d err %v", u, epoch, err)
		}
	}
}

func TestListAndStats(t *testing.T) {
	svc := New()
	for _, id := range []string{"b", "a", "c"} {
		if err := svc.Register(id, makeSnapshot(t, 32, 96, int64(len(id)))); err != nil {
			t.Fatal(err)
		}
	}
	infos := svc.List()
	if len(infos) != 3 || infos[0].ID != "a" || infos[1].ID != "b" || infos[2].ID != "c" {
		t.Fatalf("List = %+v, want a,b,c", infos)
	}
	if _, err := svc.Advice("a", 0); err != nil {
		t.Fatal(err)
	}
	st := svc.StatsNow()
	if st.Registered != 3 || st.Queries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUpdateChainEpochBytes scripts one entry through every kind of
// update: non-tree raises (the advisor's fast path), a tree-edge change
// (a full recompute without deletion), a deletion, then raises again.
// After each update, every epoch published so far must encode
// (store.Encode) to the bytes of a reference: a Clone of the registered
// graph with the same batches applied by ApplyBatch, with a fresh
// oracle run's advice. So no epoch changes once it is published,
// whatever storage later epochs share with it. A batch that deletes
// nothing must publish a graph on its predecessor's CSR; a deletion
// must not. A second entry on the same graph carries tiers at levels
// 1–3 and takes the same batches: every one of its epochs must encode
// to the same bytes and carry the tiers that BuildTiers builds on a
// fresh decomposition of the reference at that epoch.
func TestUpdateChainEpochBytes(t *testing.T) {
	svc := New()
	snap := makeSnapshot(t, 200, 600, 12)
	if err := svc.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	levels := []int{1, 2, 3}
	tiered := *snap
	tiered.Tiers = freshTiers(t, snap.Graph, levels)
	if err := svc.Register("tiered", &tiered); err != nil {
		t.Fatal(err)
	}
	ref := snap.Graph.Clone()
	encode := func(g *graph.Graph, advice []*bitstring.BitString) []byte {
		t.Helper()
		blob, err := store.Encode(&store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: advice})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ep0, err := svc.Epoch("g")
	if err != nil {
		t.Fatal(err)
	}
	tep0, err := svc.Epoch("tiered")
	if err != nil {
		t.Fatal(err)
	}
	epochs, want := []*Epoch{ep0}, [][]byte{encode(ref, snap.Advice)}
	tieredEpochs, wantTiers := []*Epoch{tep0}, [][]store.Tier{freshTiers(t, ref, levels)}
	maxW := ref.MaxWeight()
	// edge returns an edge of the reference that is, or is not, in its
	// MST, skipping the first skip such edges.
	edge := func(tree bool, skip int) graph.EdgeID {
		t.Helper()
		mstEdges, err := mst.Kruskal(ref)
		if err != nil {
			t.Fatal(err)
		}
		inTree := make([]bool, ref.M())
		for _, e := range mstEdges {
			inTree[e] = true
		}
		for e := range inTree {
			if inTree[e] == tree {
				if skip == 0 {
					return graph.EdgeID(e)
				}
				skip--
			}
		}
		t.Fatalf("no edge with inTree = %v", tree)
		return -1
	}
	raise := func(tree bool, skip int) func() graph.Batch {
		return func() graph.Batch {
			maxW++
			return graph.Batch{Weights: []graph.WeightUpdate{{Edge: edge(tree, skip), W: maxW}}}
		}
	}
	steps := []struct {
		name        string
		batch       func() graph.Batch
		incremental bool
	}{
		{"non-tree raise", raise(false, 0), true},
		{"second non-tree raise", raise(false, 5), true},
		{"tree-edge raise", raise(true, 3), false},
		{"deletion", func() graph.Batch { return graph.Batch{Deletions: []graph.EdgeID{edge(false, 2)}} }, false},
		{"raise after the deletion", raise(false, 1), true},
		{"last raise", raise(false, 7), true},
	}
	for _, step := range steps {
		b := step.batch()
		for _, id := range []string{"g", "tiered"} {
			reply, err := svc.Update(context.Background(), id, b)
			if err != nil {
				t.Fatalf("%s of %s: %v", step.name, id, err)
			}
			if reply.Incremental != step.incremental {
				t.Fatalf("%s of %s: incremental = %v, want %v", step.name, id, reply.Incremental, step.incremental)
			}
		}
		if err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		advice, err := core.BuildAdvice(ref, 0, core.DefaultCap)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := svc.Epoch("g")
		if err != nil {
			t.Fatal(err)
		}
		tep, err := svc.Epoch("tiered")
		if err != nil {
			t.Fatal(err)
		}
		epochs, want = append(epochs, ep), append(want, encode(ref, advice))
		tieredEpochs, wantTiers = append(tieredEpochs, tep), append(wantTiers, freshTiers(t, ref, levels))
		for k, e := range epochs {
			if !bytes.Equal(encode(e.Graph, e.Advice), want[k]) {
				t.Fatalf("after the %s, epoch %d encodes differently from the reference", step.name, k)
			}
			te := tieredEpochs[k]
			if !bytes.Equal(encode(te.Graph, te.Advice), want[k]) {
				t.Fatalf("after the %s, tiered epoch %d encodes differently from the reference", step.name, k)
			}
			if !reflect.DeepEqual(te.Tiers, wantTiers[k]) {
				t.Fatalf("after the %s, tiered epoch %d differs from BuildTiers on a fresh decomposition of its graph", step.name, k)
			}
		}
		before := epochs[len(epochs)-2].Graph
		if shared := &ep.Graph.Ports(0)[0] == &before.Ports(0)[0]; shared != (len(b.Deletions) == 0) {
			t.Fatalf("%s: epoch %d shares its predecessor's CSR: %v", step.name, ep.Seq, shared)
		}
	}
}

// TestWeightOnlyUpdateAllocations bounds one weight-only Update at
// n = 10⁵ by 1.1 × (24m + 8n) bytes: the epoch's copy of the edge
// records and of the advice pointers. Publishing a Clone of the live
// graph instead adds the CSR and the identifiers, 16n + 8m bytes, and
// fails the bound.
func TestWeightOnlyUpdateAllocations(t *testing.T) {
	const n = 100_000
	svc := New()
	snap := makeSnapshot(t, n, 3*n, 8)
	if err := svc.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	g := snap.Graph
	mstEdges, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	inTree := make([]bool, g.M())
	for _, e := range mstEdges {
		inTree[e] = true
	}
	var raise []graph.WeightUpdate
	maxW := g.MaxWeight()
	for e := 0; len(raise) < 2; e++ {
		if !inTree[e] {
			maxW++
			raise = append(raise, graph.WeightUpdate{Edge: graph.EdgeID(e), W: maxW})
		}
	}
	update := func(wu graph.WeightUpdate) {
		reply, err := svc.Update(context.Background(), "g", graph.Batch{Weights: []graph.WeightUpdate{wu}})
		if err != nil {
			t.Fatal(err)
		}
		if !reply.Incremental {
			t.Fatal("a non-tree raise took the full path")
		}
	}
	update(raise[0]) // builds the advisor
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	update(raise[1])
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	limit := 1.1 * float64(24*g.M()+8*n)
	t.Logf("one weight-only update allocated %.2f MiB (limit %.2f MiB, m = %d)", float64(got)/(1<<20), limit/(1<<20), g.M())
	if float64(got) > limit {
		t.Fatalf("one weight-only update allocated %d bytes, limit %.0f", got, limit)
	}
}
