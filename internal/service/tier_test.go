package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/hier"
	"mstadvice/internal/sim"
	"mstadvice/internal/store"
)

// makeTieredSnapshot builds a random instance whose snapshot carries
// coarse tiers at the given levels.
func makeTieredSnapshot(t testing.TB, n, m int, seed int64, levels []int) *store.Snapshot {
	t.Helper()
	snap := makeSnapshot(t, n, m, seed)
	d, err := boruvka.DecomposeOpt(snap.Graph, snap.Root, boruvka.Options{KeepPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := hier.BuildTiers(d, hier.HierOptions{Levels: levels, Cap: snap.Cap})
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) == 0 {
		t.Fatal("no tiers built")
	}
	snap.Tiers = tiers
	return snap
}

// TestTierServing pins the tier read path: level selection, the
// coarsest default, the standalone flat snapshot a client can decode
// and run the unmodified flat scheme on, and the error on flat entries.
func TestTierServing(t *testing.T) {
	svc := New()
	snap := makeTieredSnapshot(t, 200, 600, 9, []int{1, 2})
	if err := svc.Register("tg", snap); err != nil {
		t.Fatal(err)
	}

	info, err := svc.InfoFor("tg")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.TierLevels, []int{1, 2}) {
		t.Fatalf("TierLevels = %v, want [1 2]", info.TierLevels)
	}

	tier, err := svc.TierSnapshot("tg", 2)
	if err != nil {
		t.Fatal(err)
	}
	if tier.Level != 2 || tier.Epoch != 0 {
		t.Fatalf("TierSnapshot(2) = level %d at epoch %d, want 2 at 0", tier.Level, tier.Epoch)
	}
	if coarsest, err := svc.TierSnapshot("tg", 0); err != nil || coarsest.Level != 2 {
		t.Fatalf("TierSnapshot(0) = level %d (%v), want the coarsest 2", coarsest.Level, err)
	}
	if _, err := svc.TierSnapshot("tg", 42); !IsNotFound(err) {
		t.Fatalf("TierSnapshot(42) on a snapshot without that level: %v, want not found", err)
	}

	reply, err := svc.TierSnapshot("tg", 1)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Level != 1 || reply.N != snap.Tiers[0].Graph.N() || len(reply.OrigEdges) != reply.M {
		t.Fatalf("tier reply header %+v inconsistent with tier 1", reply)
	}
	coarse, err := store.Decode(reply.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Version != 2 {
		t.Fatalf("tier snapshot version %d, want flat 2", coarse.Version)
	}
	runFlat(t, coarse.Graph, coarse)

	flat := New()
	if err := flat.Register("fg", makeSnapshot(t, 50, 120, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.TierSnapshot("fg", 0); !IsNotFound(err) {
		t.Fatalf("TierSnapshot on a flat snapshot: %v, want not found", err)
	}
}

// TestTierUpdateRebuild pins copy-on-write across updates of a tiered
// entry: the previous epoch's tiers stay untouched for readers holding
// it, and the new epoch's tiers are rebuilt on the updated graph at the
// same levels.
func TestTierUpdateRebuild(t *testing.T) {
	svc := New()
	snap := makeTieredSnapshot(t, 150, 450, 11, []int{1, 2})
	if err := svc.Register("ug", snap); err != nil {
		t.Fatal(err)
	}
	before, err := svc.Epoch("ug")
	if err != nil {
		t.Fatal(err)
	}
	heldTiers := before.Tiers

	// Swap the two globally smallest weights: the MST changes, so the
	// rebuilt tiers must differ from the held ones.
	edges := before.Graph.Edges()
	lo, hi := 0, 1
	for e := range edges {
		if edges[e].W < edges[lo].W {
			lo = e
		}
	}
	if lo == hi {
		hi = 2
	}
	b := graph.Batch{Weights: []graph.WeightUpdate{
		{Edge: graph.EdgeID(lo), W: edges[hi].W*2 + 1},
	}}
	reply, err := svc.Update(context.Background(), "ug", b)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Epoch != 1 {
		t.Fatalf("update published epoch %d, want 1", reply.Epoch)
	}

	after, err := svc.Epoch("ug")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tierLevels(after.Tiers), []int{1, 2}) {
		t.Fatalf("rebuilt tier levels %v, want [1 2]", tierLevels(after.Tiers))
	}
	if !reflect.DeepEqual(before.Tiers, heldTiers) {
		t.Fatal("previous epoch's tiers changed under a held reader")
	}
	// Rebuilt tiers describe the new graph: the served coarse instance
	// still verifies under the flat scheme.
	rep, err := svc.TierSnapshot("ug", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 {
		t.Fatalf("tier served from epoch %d, want 1", rep.Epoch)
	}
	coarse, err := store.Decode(rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	runFlat(t, coarse.Graph, coarse)
}

// TestTierLevelsSurviveShallowEpochs replays updates under which a
// tiered entry's tower loses levels and regains them. A 16-node path
// with four phases is registered with tiers [1 2 3]. Raising edge 7
// from 40 to 25 merges the path in three phases, which leaves levels
// [1 2]; setting it back restores epoch 0's graph. Weights that rise
// along the path then let phase 1 merge everything, which leaves no
// tier, and restoring them restores the graph again. Every update must
// rebuild at the registered levels, clamped by its own tower only, and
// every epoch's tiers must equal BuildTiers on a fresh decomposition of
// that epoch's graph.
func TestTierLevelsSurviveShallowEpochs(t *testing.T) {
	weights := []graph.Weight{1, 20, 2, 30, 3, 21, 4, 40, 5, 22, 6, 31, 7, 23, 8}
	b := graph.NewBuilder(len(weights) + 1)
	for i, w := range weights {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := []int{1, 2, 3}
	fresh := func(g *graph.Graph) []store.Tier {
		t.Helper()
		d, err := boruvka.DecomposeOpt(g, 0, boruvka.Options{KeepPhases: 1})
		if err != nil {
			t.Fatal(err)
		}
		tiers, err := hier.BuildTiers(d, hier.HierOptions{Levels: levels, Cap: core.DefaultCap})
		if err != nil {
			t.Fatal(err)
		}
		return tiers
	}
	adv, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	svc := New()
	if err := svc.Register("path", &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adv, Tiers: fresh(g)}); err != nil {
		t.Fatal(err)
	}
	var rising, restore []graph.WeightUpdate
	for i, w := range weights {
		rising = append(rising, graph.WeightUpdate{Edge: graph.EdgeID(i), W: graph.Weight(100 + i)})
		restore = append(restore, graph.WeightUpdate{Edge: graph.EdgeID(i), W: w})
	}
	steps := []struct {
		name  string
		batch []graph.WeightUpdate
		want  []int
	}{
		{"registered", nil, levels},
		{"edge 7 at 25", []graph.WeightUpdate{{Edge: 7, W: 25}}, []int{1, 2}},
		{"edge 7 back at 40", []graph.WeightUpdate{{Edge: 7, W: 40}}, levels},
		{"rising weights", rising, []int{}},
		{"weights restored", restore, levels},
	}
	for i, st := range steps {
		if st.batch != nil {
			if _, err := svc.Update(context.Background(), "path", graph.Batch{Weights: st.batch}); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
		}
		ep, err := svc.Epoch("path")
		if err != nil {
			t.Fatal(err)
		}
		if ep.Seq != uint64(i) {
			t.Fatalf("%s: epoch %d, want %d", st.name, ep.Seq, i)
		}
		if got := tierLevels(ep.Tiers); !reflect.DeepEqual(got, st.want) {
			t.Fatalf("%s: tier levels %v, want %v", st.name, got, st.want)
		}
		if !reflect.DeepEqual(ep.Tiers, fresh(ep.Graph)) {
			t.Fatalf("%s: tiers differ from BuildTiers on a fresh decomposition of the epoch's graph", st.name)
		}
	}
}

// TestTierHTTP pins the daemon surface: GET /v1/graphs/{id}/tier.
func TestTierHTTP(t *testing.T) {
	svc := New()
	if err := svc.Register("hg", makeTieredSnapshot(t, 100, 300, 12, []int{1})); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc, false))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/graphs/hg/tier?level=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var reply TierReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Level != 1 || len(reply.Snapshot) == 0 {
		t.Fatalf("tier reply %+v", reply)
	}
	if _, err := store.Decode(reply.Snapshot); err != nil {
		t.Fatalf("served tier snapshot does not decode: %v", err)
	}

	if resp, err := srv.Client().Get(srv.URL + "/v1/graphs/hg/tier?level=9"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("missing level: status %d, want 404", resp.StatusCode)
		}
	}
}

// runFlat replays the flat Theorem 3 decoder on a decoded coarse
// instance and reports whether it reconstructs that instance's MST.
func runFlat(t *testing.T, g *graph.Graph, snap *store.Snapshot) {
	t.Helper()
	res, err := sim.NewNetwork(g).Run(core.Scheme{}.NewNode, snap.Advice, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := advice.VerifyOutput(g, res.ParentPorts); !v.Verified {
		t.Fatalf("flat scheme on the served coarse instance: %v", v.VerifyErr)
	}
}
