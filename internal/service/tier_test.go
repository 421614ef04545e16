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
	d, err := boruvka.DecomposeOpt(snap.Graph, snap.Root, boruvka.Options{KeepTower: true, KeepPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := hier.BuildTiers(d.Tower, snap.Root, hier.HierOptions{Levels: levels, Cap: snap.Cap})
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
