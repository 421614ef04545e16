package experiments

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// serviceBenchQueries is the default closed-loop size: large enough that
// the wall time clears the baseline gate's 10ms stability floor on any
// machine, small enough that the whole bench stays a CI smoke step.
const serviceBenchQueries = 200_000

// ServiceBench is the load generator for the advice-serving layer
// (BENCH_service.json): it builds one oracle run per configured size,
// round-trips it through the store codec, registers it with an
// AdviceService, and drives closed-loop query workers against the
// service — each worker issues its next query as soon as the previous
// answer returns, so QPS measures the service, not a pacing model.
//
// Rows per size:
//
//	store-roundtrip      Save+Load wall/allocs, file size, bit-identity
//	advice-query         workers ∈ {1, 4, GOMAXPROCS}: QPS, p50/p99
//	                     latency, allocs/query; Verified = every reply
//	                     byte-identical to the fresh oracle run
//	advice-query-churn   4 readers overlapped with a writer applying
//	                     batched updates; Verified additionally requires
//	                     the final epoch to match an oracle rerun on the
//	                     final graph
//
// Sizes come from the config (nil means n = 10⁵, the acceptance-test
// scale); Config.Queries overrides the per-row query count.
func ServiceBench(c Config) []BenchResult {
	sizes := c.Sizes
	if sizes == nil {
		sizes = []int{100_000}
	}
	queries := c.Queries
	if queries <= 0 {
		queries = serviceBenchQueries
	}
	var out []BenchResult
	for _, n := range sizes {
		out = append(out, serviceBenchAt(c, n, queries)...)
	}
	return out
}

func serviceBenchAt(c Config, n, queries int) []BenchResult {
	g := c.graph("random", n, int64(n)+271)
	fresh, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		panic(err)
	}

	base := BenchResult{Kind: "service", Family: "random", N: g.N(), M: g.M()}
	var out []BenchResult

	// Store round-trip: save + load, bit-identity of graph and advice.
	dir, err := os.MkdirTemp("", "mstadvice-bench-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.mstadv")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := store.Save(path, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: fresh}); err != nil {
		panic(err)
	}
	snap, err := store.OpenMapped(path)
	if err != nil {
		panic(err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	st, err := os.Stat(path)
	if err != nil {
		panic(err)
	}
	storeRow := base
	storeRow.Scheme = "store-roundtrip"
	storeRow.Workers = 1
	storeRow.WallNS = wall.Nanoseconds()
	storeRow.Allocs = after.Mallocs - before.Mallocs
	storeRow.AllocBytes = after.TotalAlloc - before.TotalAlloc
	storeRow.Bytes = st.Size()
	storeRow.Verified = graph.Equal(g, snap.Graph) == nil && adviceIdentical(fresh, snap.Advice)
	out = append(out, storeRow)

	// Serve the reloaded snapshot, never the in-memory original: the
	// query rows certify the full disk round trip.
	svc := service.New()
	const graphID = "bench"
	if err := svc.Register(graphID, snap); err != nil {
		panic(err)
	}

	var seqWall int64
	for _, workers := range benchWorkers() {
		q0 := svcQueries(svc)
		row := queryRow(base, svc, graphID, fresh, workers, queries, nil)
		row.Scheme = "advice-query"
		// Metrics-vs-truth cross-check: the server's query counter must
		// have moved by exactly the number of answers the clients got.
		row.Verified = row.Verified && svcQueries(svc)-q0 == uint64(row.Queries)
		if workers == 1 {
			seqWall = row.WallNS
		} else if row.WallNS > 0 {
			row.Speedup = float64(seqWall) / float64(row.WallNS)
		}
		out = append(out, row)
	}

	// Churn row: 4 readers racing a writer that publishes epochs via
	// batched weight updates. Readers only check reply well-formedness
	// (any reply is plausible mid-churn); the epoch-level byte-identity
	// is asserted against the final graph below. The writer's first
	// update is a warmup outside the timed window — it pays the lazy
	// advisor build (a full oracle + sensitivity run), which would
	// otherwise eat the whole read window and publish zero epochs.
	target := graph.EdgeID(-1)
	probe := svcAdvisorProbe(g)
	for e := 0; e < g.M(); e++ {
		if !probe.InTree[e] {
			target = graph.EdgeID(e)
			break
		}
	}
	var churn func(stop <-chan struct{}) int
	if target >= 0 {
		w := g.Weight(target)
		warmup := graph.Batch{Weights: []graph.WeightUpdate{{Edge: target, W: w + 1}}}
		if _, err := svc.Update(context.Background(), graphID, warmup); err != nil {
			panic(err)
		}
		churn = func(stop <-chan struct{}) int {
			updates := 0
			for {
				select {
				case <-stop:
					return updates
				default:
				}
				b := graph.Batch{Weights: []graph.WeightUpdate{{Edge: target, W: w + graph.Weight(2+updates%2)}}}
				if _, err := svc.Update(context.Background(), graphID, b); err != nil {
					panic(err)
				}
				updates++
			}
		}
	}
	q0 := svcQueries(svc)
	churnRow := queryRow(base, svc, graphID, nil, 4, queries, churn)
	churnRow.Scheme = "advice-query-churn"
	churnRow.Verified = churnRow.Verified && svcQueries(svc)-q0 == uint64(churnRow.Queries)
	// The writer's allocations (graph clone + advice copy per published
	// epoch) land in this row's counters, and the number of epochs the
	// writer manages to publish depends on how many cores the host gives
	// it — so, unlike every other row, the alloc columns here are not
	// machine-independent and must not feed the CompareBaseline gate
	// (a zero baseline is skipped by its b.Allocs > 0 guard). Rounds
	// still records the epoch count for the human reader.
	churnRow.Allocs, churnRow.AllocBytes, churnRow.AllocsPerQuery = 0, 0, 0
	ep, err := svc.Epoch(graphID)
	if err != nil {
		panic(err)
	}
	final, err := core.BuildAdvice(ep.Graph, 0, core.DefaultCap)
	if err != nil {
		panic(err)
	}
	churnRow.Verified = churnRow.Verified && adviceIdentical(final, ep.Advice)
	out = append(out, churnRow)
	return out
}

// queryRow drives one closed loop: `queries` advice lookups spread over
// `workers` goroutines, each recording its per-query latency. ref, when
// non-nil, is the expected assignment (Verified = every reply matches
// it byte for byte). churn, when non-nil, runs on an extra goroutine
// until the readers finish; the number of epochs it published is
// reported in the row's Rounds column, so the baseline records how much
// write pressure the read numbers absorbed.
func queryRow(base BenchResult, svc *service.Service, graphID string,
	ref []*bitstring.BitString, workers, queries int,
	churn func(stop <-chan struct{}) int) BenchResult {

	n := base.N
	perWorker := queries / workers
	if perWorker < 1 {
		perWorker = 1 // a tiny -service-queries still measures something
	}
	latencies := make([][]int64, workers)
	for w := range latencies {
		latencies[w] = make([]int64, perWorker)
	}
	var bad atomic.Int64
	stop := make(chan struct{})
	updates := 0
	var churnWG sync.WaitGroup
	if churn != nil {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			updates = churn(stop)
		}()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := latencies[w]
			for i := 0; i < perWorker; i++ {
				node := (w*perWorker + i*7919) % n
				q0 := time.Now()
				bits, _, err := svc.AdviceBits(graphID, node)
				lat[i] = time.Since(q0).Nanoseconds()
				switch {
				case err != nil || bits == nil:
					bad.Add(1)
				case ref != nil && !bits.Equal(ref[node]):
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	close(stop)
	churnWG.Wait()

	all := make([]int64, 0, workers*perWorker)
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	slices.Sort(all)
	total := int64(workers * perWorker)
	row := base
	row.Workers = workers
	row.Queries = total
	row.WallNS = wall.Nanoseconds()
	row.QPS = float64(total) / wall.Seconds()
	row.P50NS = all[len(all)/2]
	row.P99NS = all[len(all)*99/100]
	row.Allocs = after.Mallocs - before.Mallocs
	row.AllocBytes = after.TotalAlloc - before.TotalAlloc
	row.AllocsPerQuery = float64(row.Allocs) / float64(total)
	row.Rounds = updates
	row.Verified = bad.Load() == 0
	return row
}

// svcQueries reads the service's lifetime query counter — the
// server-side truth the query rows cross-check client counts against.
func svcQueries(svc *service.Service) uint64 {
	v, _ := svc.Metrics().CounterValue("service_queries_total")
	return v
}

// adviceIdentical reports bit-identity of two assignments.
func adviceIdentical(a, b []*bitstring.BitString) bool {
	if len(a) != len(b) {
		return false
	}
	for u := range a {
		if !a[u].Equal(b[u]) {
			return false
		}
	}
	return true
}

// svcAdvisorProbe computes just the MST membership needed to pick a
// churn target without paying a full sensitivity analysis.
type treeProbe struct{ InTree []bool }

func svcAdvisorProbe(g *graph.Graph) treeProbe {
	tree, err := mst.Kruskal(g)
	if err != nil {
		panic(err)
	}
	inTree := make([]bool, g.M())
	for _, e := range tree {
		inTree[e] = true
	}
	return treeProbe{InTree: inTree}
}
