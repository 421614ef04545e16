package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "op", "read")
	b := reg.Counter("x_total", "op", "read")
	if a != b {
		t.Fatal("re-registering the same counter returned a new instance")
	}
	c := reg.Counter("x_total", "op", "write")
	if a == c {
		t.Fatal("different labels shared one counter")
	}
	a.Add(2)
	if v, ok := reg.CounterValue("x_total", "op", "read"); !ok || v != 2 {
		t.Fatalf("CounterValue = %d, %v; want 2, true", v, ok)
	}
	if _, ok := reg.CounterValue("x_total", "op", "missing"); ok {
		t.Fatal("CounterValue found an unregistered series")
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("y_total", "a", "1", "b", "2")
	b := reg.Counter("y_total", "b", "2", "a", "1")
	if a != b {
		t.Fatal("label order changed series identity; labels must canonicalize")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one family under two kinds did not panic")
		}
	}()
	reg.Gauge("z_total")
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(5)
	g.Max(3)
	if g.Value() != 5 {
		t.Fatalf("Max(3) lowered the gauge to %d", g.Value())
	}
	g.Max(9)
	if g.Value() != 9 {
		t.Fatalf("Max(9) = %d", g.Value())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				g.Max(i * int64(w+1))
			}
		}(w)
	}
	wg.Wait()
	if g.Value() != 999*8 {
		t.Fatalf("concurrent Max = %d, want %d", g.Value(), 999*8)
	}
}

func TestGaugeFuncScrape(t *testing.T) {
	reg := NewRegistry()
	behind := 7
	reg.GaugeFunc("lag_records", func() float64 { return float64(behind) })
	if got := scrape(t, reg); !strings.Contains(got, "\nlag_records 7\n") {
		t.Fatalf("scrape = %q; want lag_records 7", got)
	}
	behind = 0
	if got := scrape(t, reg); !strings.Contains(got, "\nlag_records 0\n") {
		t.Fatalf("scrape after update = %q; want lag_records 0 (funcs must evaluate at scrape)", got)
	}
}

// TestNames: the exposition lists each family once, in registration
// order, however many label sets it has.
func TestNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total")
	reg.Gauge("a_gauge")
	reg.Counter("b_total", "k", "v") // same family, no new name
	var names []string
	for _, line := range strings.Split(scrape(t, reg), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	if want := []string{"b_total", "a_gauge"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("families = %v, want %v (registration order)", names, want)
	}
}

// scrape renders reg's exposition text.
func scrape(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
