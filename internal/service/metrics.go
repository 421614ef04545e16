package service

import (
	"strconv"
	"time"

	"mstadvice/internal/obs"
)

// Service metric set (DESIGN.md §2.11). Every Service owns one
// obs.Registry, created in New and served by the daemon's -debug-addr
// /metrics endpoint. All instances are pre-registered here so the
// serving paths never touch the registry lock: the hot read path costs
// exactly one atomic counter add (the same single atomic the
// pre-instrumentation Stats counter cost), and the write/decode paths
// add one histogram observation each — state transitions, not traffic.
type svcMetrics struct {
	reg *obs.Registry

	// queries counts every answered read (advice, advice-bits, tier
	// snapshot) — the hot-path counter behind Stats.Queries.
	queries *obs.Counter
	decodes *obs.Counter
	updates *obs.Counter

	// Per-op counters and log₂ latency histograms for the slow paths.
	ops map[string]opMetric

	// Per-shard gauges: registered entries and the highest epoch
	// sequence published through the shard — the at-a-glance view of
	// which shard is hot and how far each history has advanced.
	shardEntries  [numShards]*obs.Gauge
	shardEpochMax [numShards]*obs.Gauge
}

type opMetric struct {
	total   *obs.Counter
	latency *obs.Histogram
}

// opNames are the instrumented slow-path operations.
var opNames = []string{"register", "publish", "update", "decode"}

func newSvcMetrics() *svcMetrics {
	reg := obs.NewRegistry()
	m := &svcMetrics{
		reg:     reg,
		queries: reg.Counter("service_queries_total"),
		decodes: reg.Counter("service_decodes_total"),
		updates: reg.Counter("service_updates_total"),
		ops:     make(map[string]opMetric, len(opNames)),
	}
	for _, op := range opNames {
		m.ops[op] = opMetric{
			total:   reg.Counter("service_op_total", "op", op),
			latency: reg.Histogram("service_op_latency_ns", "op", op),
		}
	}
	for i := 0; i < numShards; i++ {
		shard := strconv.Itoa(i)
		m.shardEntries[i] = reg.Gauge("service_shard_entries", "shard", shard)
		m.shardEpochMax[i] = reg.Gauge("service_shard_epoch_max", "shard", shard)
	}
	return m
}

// op records one completed slow-path operation with its latency.
func (m *svcMetrics) op(name string, t0 time.Time) {
	om := m.ops[name]
	om.total.Inc()
	om.latency.ObserveSince(t0)
}

// Metrics returns the service's metric registry, for exposition (the
// daemon mounts it on /metrics) and for the cross-checking benches.
func (s *Service) Metrics() *obs.Registry { return s.met.reg }
