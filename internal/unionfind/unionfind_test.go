package unionfind

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasic(t *testing.T) {
	d := New(5)
	if len(d.parent) != 5 || d.Sets() != 5 {
		t.Fatalf("fresh DSU: len=%d sets=%d", len(d.parent), d.Sets())
	}
	if !d.Union(0, 1) {
		t.Fatal("first union should merge")
	}
	if d.Union(1, 0) {
		t.Fatal("second union should be a no-op")
	}
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Fatal("Same wrong")
	}
	if d.Sets() != 4 {
		t.Fatalf("Sets = %d, want 4", d.Sets())
	}
	if d.SizeOf(0) != 2 || d.SizeOf(2) != 1 {
		t.Fatal("SizeOf wrong")
	}
}

func TestChain(t *testing.T) {
	n := 100
	d := New(n)
	for i := 0; i+1 < n; i++ {
		d.Union(i, i+1)
	}
	if d.Sets() != 1 {
		t.Fatalf("Sets = %d, want 1", d.Sets())
	}
	root := d.Find(0)
	for i := 0; i < n; i++ {
		if d.Find(i) != root {
			t.Fatalf("element %d has different root", i)
		}
	}
	if d.SizeOf(50) != n {
		t.Fatalf("SizeOf = %d, want %d", d.SizeOf(50), n)
	}
}

func TestGroups(t *testing.T) {
	d := New(7)
	d.Union(2, 5)
	d.Union(5, 6)
	d.Union(0, 3)
	groups := groups(d)
	want := [][]int{{0, 3}, {1}, {2, 5, 6}, {4}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d: %v", len(groups), len(want), groups)
	}
	for i := range want {
		if len(groups[i]) != len(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, groups[i], want[i])
		}
		for j := range want[i] {
			if groups[i][j] != want[i][j] {
				t.Fatalf("group %d = %v, want %v", i, groups[i], want[i])
			}
		}
	}
}

// TestNewPanics checks that New rejects a size outside [0, MaxInt32]
// before it allocates anything.
func TestNewPanics(t *testing.T) {
	for _, n := range []int{-1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d): expected panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestZeroElements(t *testing.T) {
	d := New(0)
	if len(d.parent) != 0 || d.Sets() != 0 || len(groups(d)) != 0 {
		t.Fatal("empty DSU invariants broken")
	}
}

// Property: after any sequence of unions, Sets() equals the number of
// groups, group sizes sum to n, and Same agrees with group membership.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8, opsRaw uint8) bool {
		n := int(nRaw%40) + 1
		ops := int(opsRaw % 80)
		rng := rand.New(rand.NewSource(seed))
		d := New(n)
		for k := 0; k < ops; k++ {
			d.Union(rng.Intn(n), rng.Intn(n))
		}
		groups := groups(d)
		if len(groups) != d.Sets() {
			return false
		}
		total := 0
		memberOf := make([]int, n)
		for gi, g := range groups {
			total += len(g)
			for _, x := range g {
				memberOf[x] = gi
			}
			if d.SizeOf(g[0]) != len(g) {
				return false
			}
		}
		if total != n {
			return false
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if d.Same(a, b) != (memberOf[a] == memberOf[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative and idempotent in its effect on Sets.
func TestQuickUnionCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		d := New(n)
		merges := 0
		for k := 0; k < 100; k++ {
			if d.Union(rng.Intn(n), rng.Intn(n)) {
				merges++
			}
		}
		return d.Sets() == n-merges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	n := 1 << 14
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(n)
		for k := 0; k < n; k++ {
			d.Union(rng.Intn(n), rng.Intn(n))
		}
	}
}

// groups returns the members of every set, each ascending, the sets
// ordered by their smallest member.
func groups(d *DSU) [][]int {
	index := map[int]int{} // root -> position in out
	var out [][]int
	for x := range d.parent {
		r := d.Find(x)
		i, ok := index[r]
		if !ok {
			i = len(out)
			index[r] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], x)
	}
	return out
}
