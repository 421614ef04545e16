package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the harness around
// the call: nothing inside the program is instrumented. The layer is the
// name's prefix up to the first dot.
type Span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"` // 0: no parent
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanTotal aggregates every span of one name. Reads run at tens of
// thousands per second, so their spans are summed in place instead of
// kept one by one; the parent is then named rather than numbered.
type spanTotal struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// tracer keeps spans in memory for one timed phase. A nil tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	workload string
	t0       time.Time

	mu     sync.Mutex
	spans  []Span
	totals map[string]*spanTotal
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), totals: make(map[string]*spanTotal)}
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Workload: t.workload, ID: len(t.spans) + 1, Name: name, Parent: parent, StartNS: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
}

// record adds a span whose ends were observed elsewhere, such as an
// epoch's trip from the primary's publish hook to the follower's, and
// returns its id.
func (t *tracer) record(name string, parent int, from, to time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Workload: t.workload, ID: len(t.spans) + 1, Name: name, Parent: parent,
		StartNS: from.Sub(t.t0).Nanoseconds(), EndNS: to.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// add sums one high-frequency span of d into the totals of name, whose
// spans all run inside spans named parent ("" for none).
func (t *tracer) add(name, parent string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.totals[name]
	if st == nil {
		st = &spanTotal{Name: name, Parent: parent}
		t.totals[name] = st
	}
	st.Count++
	st.TotalNS += d.Nanoseconds()
}

// spanSelf is one span name's total and self time.
type spanSelf struct {
	TotalNS int64
	SelfNS  int64
}

// summary folds recorded and summed spans into per-name totals. A
// span's self time is its duration minus its direct children's; children
// run inside their parent, one after another, so they never overlap.
func (t *tracer) summary() map[string]*spanSelf {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*spanSelf)
	get := func(name string) *spanSelf {
		s := out[name]
		if s == nil {
			s = &spanSelf{}
			out[name] = s
		}
		return s
	}
	child := make(map[string]int64)
	for _, sp := range t.spans {
		d := sp.EndNS - sp.StartNS
		get(sp.Name).TotalNS += d
		if sp.Parent > 0 {
			child[t.spans[sp.Parent-1].Name] += d
		}
	}
	for _, st := range t.totals {
		get(st.Name).TotalNS += st.TotalNS
		if st.Parent != "" {
			child[st.Parent] += st.TotalNS
		}
	}
	for name, s := range out {
		s.SelfNS = s.TotalNS - child[name]
	}
	return out
}

// unaccounted is the share of the named op spans' time not covered by
// their direct children: the part of the end-to-end wall no stage span
// explains.
func unaccounted(sum map[string]*spanSelf, op string) float64 {
	s := sum[op]
	if s == nil || s.TotalNS == 0 {
		return 0
	}
	return float64(s.SelfNS) / float64(s.TotalNS)
}

// traceLayers are the layers whose self time per operation the traced
// run reports. Every span name starts with one of them.
var traceLayers = []string{"harness", "core", "store", "service", "http", "replica"}

// layerSelf sums self time by layer.
func layerSelf(sum map[string]*spanSelf) map[string]int64 {
	out := make(map[string]int64)
	for name, s := range sum {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += s.SelfNS
	}
	return out
}

// writeSpans writes the recorded spans and the summed ones to path.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	totals := make([]*spanTotal, 0, len(t.totals))
	for _, st := range t.totals {
		totals = append(totals, st)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].Name < totals[j].Name })
	blob, err := json.MarshalIndent(struct {
		Spans  []Span       `json:"spans"`
		Totals []*spanTotal `json:"totals"`
	}{t.spans, totals}, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// rtSample is a runtime/metrics reading; delta gives what a phase added.
type rtSample struct {
	gcCycles   uint64
	allocBytes uint64
	gcPauses   *metrics.Float64Histogram
	schedLat   *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		s[i].Name = name
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.gcPauses = s[2].Value.Float64Histogram()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.schedLat = s[3].Value.Float64Histogram()
	}
	return out
}

// histDeltaQuantile is the q-quantile, in seconds, of the observations
// a runtime histogram gained between two readings: the upper bound of the
// bucket holding it (its lower bound when the bucket is unbounded). 0
// when nothing was observed.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}
