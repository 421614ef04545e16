// Package obs is the wire-speed observability core (DESIGN.md §2.11):
// atomic counters and gauges, fixed-bucket log₂-scaled latency
// histograms with an allocation-free Observe, a named metric registry
// with Prometheus-text-format exposition, and a bounded ring-buffer
// flight recorder for structured events.
//
// The package is dependency-free by design — it sits underneath every
// serving layer (service, replica, the daemon) and must never perturb
// the paths it measures. The hot-path operations (Counter.Add,
// Gauge.Set, Histogram.Observe) are single uncontended atomic
// read-modify-writes with zero allocations; everything that formats,
// sorts or aggregates (exposition, snapshots, quantiles) runs only at
// scrape time.
//
// Metric instances are registered once — typically at component
// construction — and then updated lock-free. Registering the same name
// and label set twice returns the same instance, so idempotent wiring
// is safe; registering one family under two metric types panics, since
// the exposition could not type the family either way.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter. Allocation-free.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Allocation-free.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Max raises the gauge to v if v exceeds the current value — the
// publish-path idiom for "highest epoch seen per shard", safe against
// concurrent writers of different entries.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind types a family for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one (family, label set) instance.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	kind   metricKind
	order  []string // label strings in registration order
	series map[string]*series
}

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. Registration takes the registry lock;
// metric updates never do.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns alternating key, value pairs into the canonical
// exposition form, sorted by key so the same set always renders (and
// dedups) identically.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns (creating if needed) the series of name+labels,
// enforcing one kind per family.
func (r *Registry) lookup(name string, kind metricKind, kv []string) *series {
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	s := f.series[labels]
	if s == nil {
		s = &series{labels: labels}
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s
}

// Counter registers (or returns the existing) counter of name with the
// given alternating label key, value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	s := r.lookup(name, kindCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	s := r.lookup(name, kindGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the lag-style metrics ("epochs behind", "seconds since last apply")
// that are a function of now, not of an event.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	s := r.lookup(name, kindGaugeFunc, labels)
	s.fn = fn
}

// Histogram registers (or returns the existing) log₂-bucketed
// histogram.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	s := r.lookup(name, kindHistogram, labels)
	if s.h == nil {
		s.h = &Histogram{}
	}
	return s.h
}

// CounterValue reads a registered counter (0, false when absent) —
// the cross-check hook benches and tests scrape instead of parsing
// exposition text.
func (r *Registry) CounterValue(name string, labels ...string) (uint64, bool) {
	labelStr := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil || f.kind != kindCounter {
		return 0, false
	}
	s := f.series[labelStr]
	if s == nil || s.c == nil {
		return 0, false
	}
	return s.c.Value(), true
}

// HistogramSnapshot reads a registered histogram's snapshot (zero,
// false when absent).
func (r *Registry) HistogramSnapshot(name string, labels ...string) (HistSnapshot, bool) {
	labelStr := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil || f.kind != kindHistogram {
		return HistSnapshot{}, false
	}
	s := f.series[labelStr]
	if s == nil || s.h == nil {
		return HistSnapshot{}, false
	}
	return s.h.Snapshot(), true
}
