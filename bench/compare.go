package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchMetric is one metric entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json from the repository root, which is
// the working directory or its parent (when run from bench/).
func loadBenchmark() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		blob, err := os.ReadFile(path)
		if err != nil {
			firstErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(blob, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

// sample is one run's value of one metric.
type sample struct {
	seed  uint64
	value float64
}

// series groups result values by workload, then by metric name; traced
// runs' per-layer metrics carry a "layer:" prefix so they never mix with
// end-to-end values.
type series map[string]map[string][]sample

func readResults(dir string) (series, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	out := series{}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(blob, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[string][]sample{}
		}
		add := func(prefix string, m metricSet) {
			for name, v := range m {
				out[rf.Workload][prefix+name] = append(out[rf.Workload][prefix+name], sample{rf.Seed, v.Value})
			}
		}
		if rf.Trace {
			add("layer:", rf.Result.Metrics)
		} else {
			add("", rf.Result.Metrics)
			add("detail:", rf.Detail)
		}
	}
	return out, nil
}

// compareDirs prints, for every (workload, metric), each side's median
// and quartiles and, for the end-to-end metrics, a verdict under the
// BENCHMARK.json bounds. It reports whether any metric regressed.
func compareDirs(w io.Writer, parentDir, changeDir string) (bool, error) {
	bf, err := loadBenchmark()
	if err != nil {
		return false, err
	}
	parent, err := readResults(parentDir)
	if err != nil {
		return false, err
	}
	change, err := readResults(changeDir)
	if err != nil {
		return false, err
	}
	bounds := map[string]benchMetric{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tn\tverdict")
	regressed := false
	for _, wl := range workloadNames() {
		names := make([]string, 0, len(parent[wl]))
		for name := range parent[wl] {
			if _, ok := change[wl][name]; ok {
				names = append(names, name)
			}
		}
		slices.SortFunc(names, func(a, b string) int { return strings.Compare(metricOrder(a), metricOrder(b)) })
		for _, name := range names {
			p, c := parent[wl][name], change[wl][name]
			v := "-"
			if m, ok := bounds[name]; ok {
				v = verdict(m, p, c)
				regressed = regressed || v == "regressed"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\n", wl, name, quartileText(p), quartileText(c), len(p), len(c), v)
		}
	}
	return regressed, tw.Flush()
}

// metricOrder sorts end-to-end metrics first, then detail, then layers.
func metricOrder(name string) string {
	switch {
	case strings.HasPrefix(name, "detail:"):
		return "1" + name
	case strings.HasPrefix(name, "layer:"):
		return "2" + name
	}
	return "0" + name
}

func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

func quartileText(s []sample) string {
	q1, q2, q3 := quartiles(values(s))
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}

// verdict judges the change against the parent for one end-to-end metric:
//
//   - improved: the change wins at least 9 in 10 seed-matched pairs
//     (ties count for neither) and the medians differ by more than the
//     parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unresolved: neither, and a side's spread (IQR over median) exceeds
//     the bound, unless every change run is better than every parent run;
//   - unchanged: otherwise.
func verdict(m benchMetric, parent, change []sample) string {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	p1, pm, p3 := quartiles(values(parent))
	c1, cm, c3 := quartiles(values(change))
	wins, pairs := 0, 0
	bySeed := map[uint64][]float64{}
	for _, s := range parent {
		bySeed[s.seed] = append(bySeed[s.seed], s.value)
	}
	for _, s := range change {
		if ps := bySeed[s.seed]; len(ps) > 0 {
			pairs++
			if better(s.value, ps[0]) {
				wins++
			}
			bySeed[s.seed] = ps[1:]
		}
	}
	if pairs > 0 && wins*10 >= 9*pairs && better(cm, pm) && math.Abs(cm-pm) > p3-p1 {
		return "improved"
	}
	if better(pm*(1+sign(m)*m.Bound), cm) {
		return "regressed"
	}
	spread := func(q1, med, q3 float64) float64 {
		if q3-q1 == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	if spread(p1, pm, p3) > m.Bound || spread(c1, cm, c3) > m.Bound {
		pv, cv := values(parent), values(change)
		worstChange, bestParent := slices.Max(cv), slices.Min(pv)
		if m.Better == "higher" {
			worstChange, bestParent = slices.Min(cv), slices.Max(pv)
		}
		if !better(worstChange, bestParent) {
			return "unresolved"
		}
	}
	return "unchanged"
}

// sign is the direction in which a metric worsens: up for lower-better.
func sign(m benchMetric) float64 {
	if m.Better == "higher" {
		return -1
	}
	return 1
}
