package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph/gen"
)

// equalDetail fails the test unless two advice details agree on every
// observable byte: advice strings, final fragments and width.
func equalDetail(t *testing.T, label string, ref, d *AdviceDetail) {
	t.Helper()
	if d.Width != ref.Width {
		t.Fatalf("%s: width %d, want %d", label, d.Width, ref.Width)
	}
	for u := range ref.Advice {
		if !ref.Advice[u].Equal(d.Advice[u]) {
			t.Fatalf("%s: advice of node %d is %s, want %s", label, u, d.Advice[u], ref.Advice[u])
		}
	}
	if len(d.Frags) != len(ref.Frags) {
		t.Fatalf("%s: %d final fragments, want %d", label, len(d.Frags), len(ref.Frags))
	}
	for i := range ref.Frags {
		a, b := ref.Frags[i], d.Frags[i]
		if a.Root != b.Root || a.ParentPort != b.ParentPort || a.Value != b.Value ||
			!reflect.DeepEqual(a.Carriers, b.Carriers) {
			t.Fatalf("%s: final fragment %d differs", label, i)
		}
	}
}

// TestAdviceParallelDeterminism asserts the oracle's determinism
// contract end to end: for every registered graph family and every
// worker count in {1,2,3,4,8,16} (counts above GOMAXPROCS included),
// the fused encoder's advice is byte-identical to the sequential
// oracle's, and the wall holds again under GOMAXPROCS=1, which forces
// every goroutine onto one OS thread and so exercises completely
// different interleavings.
func TestAdviceParallelDeterminism(t *testing.T) {
	check := func(t *testing.T) {
		for gi, fam := range gen.Names() {
			g := seeded(t, fam, 70, uint64(int64(300+gi)), gen.WeightsRandom)
			ref, err := BuildAdviceDetailOpt(g, 0, DefaultCap, OracleOptions{Workers: 1})
			if err != nil {
				t.Fatalf("family %s workers=1: %v", fam, err)
			}
			for _, workers := range []int{2, 3, 4, 8, 16} {
				d, err := BuildAdviceDetailOpt(g, 0, DefaultCap, OracleOptions{Workers: workers})
				if err != nil {
					t.Fatalf("family %s workers=%d: %v", fam, workers, err)
				}
				equalDetail(t, fam, ref, d)
			}
		}
	}
	check(t)
	t.Run("gomaxprocs1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t)
	})
}

// TestEncodeSharedDecomposition holds Encode on a decomposition that
// keeps every phase, as one shared among several readers does, to
// BuildAdviceDetailOpt, whose decomposition keeps only the P+1 phases
// the encoder reads: the same advice bytes, final fragments and width
// on every family at n ∈ {2, 3, 16, 100, 1000}, in all three weight
// modes, at 1 and 3 workers. The small graphs' runs end before phase
// P+1, so their final stage is the spanning fragment.
func TestEncodeSharedDecomposition(t *testing.T) {
	seed := uint64(0)
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{2, 3, 16, 100, 1000} {
				seed++
				g := seeded(t, fam, n, seed, mode)
				for _, workers := range []int{1, 3} {
					label := fmt.Sprintf("%s n=%d weights %d workers=%d", fam, n, mode, workers)
					want, err := BuildAdviceDetailOpt(g, 0, DefaultCap, OracleOptions{Workers: workers})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					d, err := boruvka.DecomposeOpt(g, 0, boruvka.Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got, err := Encode(d, DefaultCap)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					equalDetail(t, label, want, got)
				}
			}
		}
	}
}

// adviceRow pins one oracle run: the SHA-256 of every AdviceDetail field.
type adviceRow struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	SHA256 string `json:"sha256"`
}

// detailDigest is the SHA-256 of an AdviceDetail: the width, each node's
// advice, packed region (bits 1 on) and final bit (bit 0), and each final
// fragment's root, parent port, value and carriers.
func detailDigest(d *AdviceDetail) string {
	h := sha256.New()
	fmt.Fprintf(h, "width %d\n", d.Width)
	for _, s := range d.Advice {
		fmt.Fprintf(h, "%s %s %t\n", s, s.Slice(1, s.Len()), s.Bit(0))
	}
	for _, f := range d.Frags {
		fmt.Fprintf(h, "%d %d %d %v\n", f.Root, f.ParentPort, f.Value, f.Carriers)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAdviceGolden pins the oracle's bytes across versions: on every
// seeded family at n ∈ {1, 2, 9, 70, 300} (singleton through several
// phases) with random weights, the encoder at 1, 4 and 16 workers must
// reproduce the committed digest of every AdviceDetail field. The
// golden was written by the two-pass reference encoder that the
// streaming encoder replaced. Regenerate with
// go test ./internal/core -run TestAdviceGolden -update, only when a
// change is meant to alter the advice.
func TestAdviceGolden(t *testing.T) {
	var got []adviceRow
	for gi, name := range gen.Names() {
		for _, n := range []int{1, 2, 9, 70, 300} {
			g, err := gen.BuildSeeded(name, n, uint64(500+gi+n), gen.SeededOptions{Weights: gen.WeightsRandom})
			if err != nil {
				t.Fatalf("family %s n=%d: %v", name, n, err)
			}
			var first string
			for _, workers := range []int{1, 4, 16} {
				d, err := BuildAdviceDetailOpt(g, 0, DefaultCap, OracleOptions{Workers: workers})
				if err != nil {
					t.Fatalf("family %s n=%d workers=%d: %v", name, n, workers, err)
				}
				digest := detailDigest(d)
				if first == "" {
					first = digest
				} else if digest != first {
					t.Fatalf("family %s n=%d workers=%d: digest %s, 1 worker %s", name, n, workers, digest, first)
				}
			}
			got = append(got, adviceRow{Family: name, N: n, SHA256: first})
		}
	}
	path := filepath.Join("testdata", "advice.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	var want []adviceRow
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
