package service

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/problem"
	"mstadvice/internal/problem/topo"
	"mstadvice/internal/store"
)

// makeTopoSnapshot builds a topology-recognition instance with its
// canonical (flood, radius 0) oracle run.
func makeTopoSnapshot(t testing.TB, n int, seed int64) *store.Snapshot {
	t.Helper()
	g := seeded(t, "random", n, uint64(seed), gen.WeightsDistinct)
	adviceBits, err := topo.Problem{}.Encode(g, 0, problem.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &store.Snapshot{Problem: topo.Name, Graph: g, Root: 0, Advice: adviceBits}
}

// TestCrossProblemService registers one MST and one topology instance in
// the same service and checks per-problem behavior side by side: advice
// byte-identity against fresh oracle runs of the right problem, typed
// decode sessions, and problem attribution in Info.
func TestCrossProblemService(t *testing.T) {
	svc := New()
	mstSnap := makeSnapshot(t, 96, 288, 21)
	topoSnap := makeTopoSnapshot(t, 96, 22)
	if err := svc.Register("m", mstSnap); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("t", topoSnap); err != nil {
		t.Fatal(err)
	}
	// A bare topo snapshot (no advice) must run the topo oracle, not the
	// MST one.
	bare := seeded(t, "grid", 8*8, 23, gen.WeightsDistinct)
	if err := svc.Register("t2", &store.Snapshot{Problem: topo.Name, Graph: bare, Root: 0}); err != nil {
		t.Fatal(err)
	}

	wantMST, err := core.BuildAdvice(mstSnap.Graph, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	wantBare, err := topo.Problem{}.Encode(bare, 0, problem.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]string{
		"m":  bitsOf(wantMST),
		"t":  bitsOf(topoSnap.Advice),
		"t2": bitsOf(wantBare),
	} {
		for u, bits := range want {
			reply, err := svc.Advice(name, u)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Bits != bits {
				t.Fatalf("%s node %d: served %q, oracle says %q", name, u, reply.Bits, bits)
			}
		}
	}

	mstSess, err := svc.DecodeSession(context.Background(), "m")
	if err != nil {
		t.Fatal(err)
	}
	if mstSess.Problem != "mst" || !mstSess.Verified || mstSess.Root != 0 || mstSess.MSTWeight == 0 {
		t.Fatalf("mst session: %+v", mstSess)
	}
	topoSess, err := svc.DecodeSession(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	wantClass := topo.Class(topoSnap.Graph)
	if topoSess.Problem != topo.Name || !topoSess.Verified || topoSess.Root != -1 || topoSess.Output == "" {
		t.Fatalf("topo session: %+v", topoSess)
	}
	want := (topo.Output{Class: wantClass, Shape: topo.Shape(topoSnap.Graph), Verified: true}).String()
	if topoSess.Output != want {
		t.Fatalf("topo session output %q, want %q", topoSess.Output, want)
	}
	for _, info := range svc.List() {
		want := map[string]string{"m": "mst", "t": topo.Name, "t2": topo.Name}[info.ID]
		if info.Problem != want {
			t.Fatalf("%s attributed to problem %q, want %q", info.ID, info.Problem, want)
		}
	}
}

// TestCrossProblemConcurrentReaders hammers both problems' graphs with
// readers while writers push updates to each; run under -race this pins
// the wait-free epoch discipline across problems sharing one service.
// Readers must never block, error, or observe advice that belongs to
// neither the pre- nor a post-update oracle run.
func TestCrossProblemConcurrentReaders(t *testing.T) {
	svc := New()
	mstSnap := makeSnapshot(t, 64, 192, 31)
	topoSnap := makeTopoSnapshot(t, 64, 32)
	if err := svc.Register("m", mstSnap); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("t", topoSnap); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(salt int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(salt)))
			for !stop.Load() {
				id := "m"
				if rng.Intn(2) == 0 {
					id = "t"
				}
				if _, err := svc.Advice(id, rng.Intn(64)); err != nil {
					t.Errorf("read of %s failed: %v", id, err)
					return
				}
				reads.Add(1)
			}
		}(i)
	}

	// Let the readers draw first blood so the update storm genuinely
	// overlaps them.
	for reads.Load() == 0 {
		runtime.Gosched()
	}

	// Writers: weight perturbations through both problems' update paths
	// (incremental advisor for mst, clone + re-encode for topo).
	for round := 0; round < 8; round++ {
		for _, id := range []string{"m", "t"} {
			if _, err := svc.Update(context.Background(), id, graph.Batch{
				Weights: []graph.WeightUpdate{{Edge: graph.EdgeID(round), W: graph.Weight(1_000_000 + round)}},
			}); err != nil {
				t.Fatalf("update of %s: %v", id, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reads completed during the update storm")
	}

	// Post-storm byte-identity: served advice equals a fresh oracle run
	// of each problem on the service's current graph.
	for _, tc := range []struct {
		id   string
		want func(g *graph.Graph) []string
	}{
		{"m", func(g *graph.Graph) []string {
			adv, err := core.BuildAdvice(g, 0, core.DefaultCap)
			if err != nil {
				t.Fatal(err)
			}
			return bitsOf(adv)
		}},
		{"t", func(g *graph.Graph) []string {
			adv, err := topo.Problem{}.Encode(g, 0, problem.EncodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return bitsOf(adv)
		}},
	} {
		ep, err := svc.Epoch(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		want := tc.want(ep.Graph)
		for u, bits := range want {
			reply, err := svc.Advice(tc.id, u)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Bits != bits {
				t.Fatalf("%s node %d after updates: served %q, oracle says %q", tc.id, u, reply.Bits, bits)
			}
		}
		sess, err := svc.DecodeSession(context.Background(), tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if !sess.Verified {
			t.Fatalf("%s not verified after updates: %+v", tc.id, sess)
		}
	}
}

// TestHTTPCrossProblem serves both problems through one HTTP handler —
// the mstadviced daemon's surface — registering a generated topo
// instance by problem name next to a stored MST snapshot.
func TestHTTPCrossProblem(t *testing.T) {
	svc := New()
	srv := httptest.NewServer(NewHandler(svc, false))
	defer srv.Close()

	var info Info
	code := doJSON(t, srv, "POST", "/v1/graphs", map[string]any{
		"id": "m", "family": "random", "n": 48, "seed": 5}, &info)
	if code != http.StatusCreated || info.Problem != "mst" {
		t.Fatalf("mst register = %d, %+v", code, info)
	}
	code = doJSON(t, srv, "POST", "/v1/graphs", map[string]any{
		"id": "t", "family": "ring", "n": 48, "seed": 5, "problem": topo.Name}, &info)
	if code != http.StatusCreated || info.Problem != topo.Name {
		t.Fatalf("topo register = %d, %+v", code, info)
	}
	code = doJSON(t, srv, "POST", "/v1/graphs", map[string]any{
		"id": "x", "family": "ring", "n": 8, "seed": 5, "problem": "nope"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("register with unknown problem = %d, want 400", code)
	}

	var mstSess, topoSess Session
	if code := doJSON(t, srv, "GET", "/v1/graphs/m/decode", nil, &mstSess); code != http.StatusOK {
		t.Fatalf("mst decode = %d", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/graphs/t/decode", nil, &topoSess); code != http.StatusOK {
		t.Fatalf("topo decode = %d", code)
	}
	if mstSess.Problem != "mst" || !mstSess.Verified || mstSess.Root != 0 {
		t.Fatalf("mst session: %+v", mstSess)
	}
	if topoSess.Problem != topo.Name || !topoSess.Verified || topoSess.Root != -1 {
		t.Fatalf("topo session: %+v", topoSess)
	}
}

// bitsOf renders per-node advice as comparable strings.
func bitsOf(adv []*bitstring.BitString) []string {
	out := make([]string, len(adv))
	for u, a := range adv {
		out[u] = a.String()
	}
	return out
}
