package main

import (
	"regexp"
	"slices"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload on a 2000-node graph with 1 s timed
// phases, untraced and traced, and checks that each run emits exactly
// the metrics BENCHMARK.json lists, with their units, and that no output
// check failed.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !slices.Equal(names, got) {
		t.Fatalf("BENCHMARK.json workloads %v, bench runs %v", names, got)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layers.go %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), layers.go %s (%s)",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	for _, trace := range []bool{false, true} {
		want := bf.EndToEnd
		if trace {
			want = bf.PerLayer
		}
		for _, w := range bf.Workloads {
			rep, err := execute(config{workload: w.Name, seed: 1, seconds: time.Second, trace: trace, n: 2000, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w.Name, trace, err)
			}
			res := rep.result
			if !res.Correct || res.Failed != 0 || rep.detail["fail_frac"].Value != 0 {
				t.Errorf("%s (trace=%v): %d of %d checks failed: %v", w.Name, trace, res.Failed, res.Attempted, rep.notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): emitted %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace=%v): metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace=%v): metric %s in %s, BENCHMARK.json says %s", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			for name := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", w.Name, name)
				}
			}
		}
	}
}
