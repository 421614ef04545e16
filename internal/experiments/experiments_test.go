package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// quick is a small configuration so the full registry stays fast in tests.
var quick = Config{Sizes: []int{16, 48}, Families: []string{"path", "random"}, Seed: 1}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != len(IDs()) {
		t.Fatalf("registry has %d entries, IDs %d", len(reg), len(IDs()))
	}
	for _, id := range IDs() {
		if reg[id] == nil {
			t.Fatalf("experiment %s missing", id)
		}
	}
}

// Every experiment must run end to end and produce non-empty tables whose
// rows match their headers.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables := Registry()[id](quick)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("table %q: row width %d vs %d columns", tab.Title, len(row), len(tab.Columns))
					}
				}
				out := tab.String()
				if !strings.Contains(out, tab.Columns[0]) {
					t.Fatalf("render misses header: %q", out)
				}
			}
		})
	}
}

// TestPhaseDynamicsConcurrent reads a decomposition whose first phases
// have hundreds of fragments, so on a multi-core host Run visits them
// from several workers at once, and E6's and E9's tallies are shared;
// under -race it checks their locking. Repeated runs must tally the
// same phases, the first of them n singletons.
func TestPhaseDynamicsConcurrent(t *testing.T) {
	g := quick.graph("random", 512, 1)
	want, err := phaseDynamics(g)
	if err != nil {
		t.Fatal(err)
	}
	if want[0].frags != g.N() || want[0].active != g.N() {
		t.Fatalf("phase 1 tallies %d fragments, %d active, want %d singletons", want[0].frags, want[0].active, g.N())
	}
	for range 3 {
		got, err := phaseDynamics(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("phase tallies differ between runs")
		}
	}
}

// The experiments embed their own verification (they panic on failure);
// spot-check key cells instead of re-deriving them.
func TestE1Bounds(t *testing.T) {
	tables := E1Trivial(quick)
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "yes" {
			t.Fatalf("E1 row not verified: %v", row)
		}
	}
}

func TestE2Monotone(t *testing.T) {
	tables := E2LowerBound(quick)
	served := -1
	for _, row := range tables[0].Rows {
		if row[1] != row[2] {
			t.Fatalf("E2a served != bound in %v", row)
		}
		var cur int
		if _, err := sscan(row[1], &cur); err != nil {
			t.Fatal(err)
		}
		if cur < served {
			t.Fatal("E2a served not monotone in m")
		}
		served = cur
	}
}

func TestE4WithinSchedule(t *testing.T) {
	tables := E4ConstantAdvice(quick)
	for _, row := range tables[0].Rows {
		var maxAdvice, m int
		if _, err := sscan(row[2], &maxAdvice); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[3], &m); err != nil {
			t.Fatal(err)
		}
		if maxAdvice > m {
			t.Fatalf("E4 max advice exceeds 12: %v", row)
		}
		if row[len(row)-1] != "yes" {
			t.Fatalf("E4 row not verified: %v", row)
		}
	}
}

func sscan(s string, out *int) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return n, nil
}
