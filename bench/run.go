package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// root is the designated MST root of every generated graph.
const root = graph.NodeID(0)

// workload is one benchmark scenario. setup runs setupReps times, each
// time on a fresh value; prepare, the timed phases and probe run on the
// last one.
type workload interface {
	// setup generates the inputs and starts the servers: what setup_s
	// times.
	setup(r *run) error
	// prepare does the untimed work before the first timed phase:
	// warm-ups and reference answers.
	prepare(r *run) error
	// phase is one timed phase; tr is nil when untraced.
	phase(r *run, tr *tracer) (*phaseOut, error)
	// probe calls single layers directly after the traced phase and adds
	// what they measure to layers.
	probe(r *run, plain, traced *phaseOut, layers metricSet) error
	// base is the snapshot the workload serves.
	base() *pipeline
	close()
}

// phaseOut is what one timed phase measured.
type phaseOut struct {
	lat    []time.Duration // one per operation
	rt     [2]rtSample     // runtime counters before and after
	detail metricSet
	layers metricSet // per-layer numbers the phase itself reads
	sum    map[string]*spanSelf
}

func newPhaseOut() *phaseOut { return &phaseOut{detail: metricSet{}, layers: metricSet{}} }

// spec names a workload and its graph size; BENCHMARK.json and
// README.md say why each exists.
type spec struct {
	name string
	n    int
	new  func() workload
}

var specs = []spec{
	{"build-1m", 1_000_000, func() workload { return &buildWork{} }},
	{"decode-100k", 100_000, func() workload { return &decodeWork{} }},
	{"serve-read-1m", 1_000_000, func() workload { return &serveWork{} }},
	{"churn-100k", 100_000, func() workload { return &churnWork{} }},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// execute runs one workload: set-ups, the untimed preparation, the timed
// phase, and under -trace the traced phase and the direct layer calls.
func execute(cfg config) (*report, error) {
	sp := specByName(cfg.workload)
	r := &run{cfg: cfg, n: sp.n, notes: make(map[string][]float64)}
	if cfg.n > 0 {
		r.n = cfg.n
	}
	var w workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = sp.new()
		runtime.GC()
		t0 := time.Now()
		err := w.setup(r)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.close()
	if err := w.prepare(r); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	plain, err := timedPhase(r, w, nil)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	e2e := endToEnd(plain, w.base(), median(setups), liveHeapMB())
	rep := &report{detail: plain.detail, result: result{Metrics: e2e}}
	if cfg.trace {
		tr := newTracer(cfg.workload)
		traced, err := timedPhase(r, w, tr)
		if err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		traced.sum = tr.summary()
		layers := metricSet{}
		commonLayers(r, plain, traced, layers)
		if err := commonProbes(r, w.base(), layers); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		if err := w.probe(r, plain, traced, layers); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		for _, l := range layerMetrics {
			if _, ok := layers[l.name]; !ok {
				layers.set(l.name, 0, l.unit) // the workload never reaches this layer
			}
		}
		for name, m := range e2e {
			rep.detail["untraced."+name] = m
		}
		rep.tracer = tr
		rep.result.Metrics = layers
	}
	rep.digest = r.digest
	rep.result.Attempted = r.attempted.Load()
	rep.result.Failed = r.failed.Load()
	rep.result.Correct = rep.result.Failed == 0 && rep.result.Attempted > 0
	rep.detail.set("fail_frac", float64(rep.result.Failed)/float64(max(rep.result.Attempted, 1)), "failed/attempted")
	for _, f := range r.failures {
		rep.notes = append(rep.notes, "FAIL "+f)
	}
	for _, w := range r.warnings {
		rep.notes = append(rep.notes, "WARN "+w)
	}
	return rep, nil
}

// timedPhase runs one timed phase from a collected heap and reads the
// runtime counters around it.
func timedPhase(r *run, w workload, tr *tracer) (*phaseOut, error) {
	runtime.GC()
	before := readRuntime()
	ph, err := w.phase(r, tr)
	if err != nil {
		return nil, err
	}
	ph.rt = [2]rtSample{before, readRuntime()}
	return ph, nil
}

// allocMBPerOp is the heap a phase allocated per operation.
func allocMBPerOp(ph *phaseOut) float64 {
	return float64(ph.rt[1].allocBytes-ph.rt[0].allocBytes) / (1 << 20) / float64(max(len(ph.lat), 1))
}

// endToEnd derives the end-to-end metrics every workload reports. The
// operation is the workload's unit of user-visible work: a build, a
// decode session, a read, or an update's trip to the follower. Its
// latency goes to detail: on a shared host it swings by more than any
// bound the benchmark may set (README.md).
func endToEnd(ph *phaseOut, p *pipeline, setupS, heapMB float64) metricSet {
	lat := durs(ph.lat, time.Millisecond)
	q := tailQuantile(len(lat))
	ph.detail.set("op_p50_ms", median(lat), "ms")
	ph.detail.set("op_tail_ms", percentile(lat, q), "ms")
	ph.detail.set("op_samples", float64(len(lat)), "count")
	ph.detail.set("op_tail_quantile", q, "quantile")
	st := advice.Measure(p.advice, len(p.advice))
	m := metricSet{}
	m.set("setup_s", setupS, "s")
	m.set("live_heap_mb", heapMB, "MB")
	m.set("alloc_mb_per_op", allocMBPerOp(ph), "MB")
	m.set("advice_bits_avg", st.AvgBits, "bits/node")
	m.set("advice_bits_max", float64(st.MaxBits), "bits")
	return m
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// commonLayers fills the per-layer metrics every traced workload has:
// the untraced operation latency, stage times, self time per layer, Go
// runtime counters over the traced phase, and the tracing overhead.
func commonLayers(r *run, plain, traced *phaseOut, layers metricSet) {
	layers["e2e.op_p50_ms"] = plain.detail["op_p50_ms"]
	layers["e2e.op_tail_ms"] = plain.detail["op_tail_ms"]
	for _, name := range []string{"gen.build_s", "oracle.wall_s", "store.save_s", "store.open_s", "service.register_s"} {
		layers.set(name, r.noted(name), "s")
	}
	ops := float64(max(len(traced.lat), 1))
	self := layerSelf(traced.sum)
	for _, l := range traceLayers {
		layers.set(l+".self_ms_per_op", float64(self[l])/1e6/ops, "ms")
	}
	layers.set("trace.unaccounted_frac", unaccounted(traced.sum, opSpan), "frac")
	rt0, rt1 := traced.rt[0], traced.rt[1]
	layers.set("runtime.gc_cycles", float64(rt1.gcCycles-rt0.gcCycles), "count")
	layers.set("runtime.gc_pause_p99_us", histDeltaQuantile(rt0.gcPauses, rt1.gcPauses, 0.99)*1e6, "us")
	layers.set("runtime.sched_latency_p99_us", histDeltaQuantile(rt0.schedLat, rt1.schedLat, 0.99)*1e6, "us")
	p, t := median(durs(plain.lat, time.Nanosecond)), median(durs(traced.lat, time.Nanosecond))
	layers.set("trace.overhead_frac", t/p-1, "frac")
	for name, m := range traced.layers {
		layers[name] = m
	}
}

// opSpan names the span around each operation of a timed phase; its
// self time is the part of the end-to-end wall no stage span explains.
const opSpan = "harness.op"

// commonProbes calls the oracle, decomposition, codec and in-process
// read path directly on the workload's own snapshot, outside every
// end-to-end timer.
func commonProbes(r *run, p *pipeline, layers metricSet) error {
	workers := runtime.NumCPU()
	oracle := func(w int) (time.Duration, uint64, error) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		d, err := core.BuildAdviceDetailOpt(p.g, root, core.DefaultCap, core.OracleOptions{Workers: w})
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		r.check(sameAdvice(d.Advice, p.advice), "oracle at %d workers: advice differs from the served snapshot", w)
		return wall, after.TotalAlloc - before.TotalAlloc, nil
	}
	wallN, alloc, err := oracle(workers)
	if err != nil {
		return err
	}
	wall1, _, err := oracle(1)
	if err != nil {
		return err
	}
	layers.set("oracle.wall_s_w1", wall1.Seconds(), "s")
	layers.set("oracle.speedup", wall1.Seconds()/wallN.Seconds(), "ratio")
	layers.set("oracle.alloc_mb", float64(alloc)/(1<<20), "MB")

	// The decomposition alone, keeping the phases the oracle packs, so
	// that the encoder's share is oracle.wall_s - boruvka.decompose_s.
	keep := core.NewSchedule(p.g.N(), core.DefaultCap).P + 1
	runtime.GC()
	t0 := time.Now()
	dec, err := boruvka.DecomposeOpt(p.g, root, boruvka.Options{Workers: workers, KeepPhases: keep})
	if err != nil {
		return err
	}
	layers.set("boruvka.decompose_s", time.Since(t0).Seconds(), "s")
	layers.set("boruvka.phases", float64(dec.TotalPhases), "count")

	t0 = time.Now()
	blob, err := store.Encode(p.snap)
	if err != nil {
		return err
	}
	layers.set("store.encode_ms", msSince(t0), "ms")
	layers.set("store.bytes_per_node", float64(len(blob))/float64(p.g.N()), "B/node")
	sum := sha256.Sum256(blob)
	r.check(hex.EncodeToString(sum[:]) == r.digest, "re-encoded snapshot differs from the saved file")
	t0 = time.Now()
	back, err := store.Decode(blob)
	if err != nil {
		return err
	}
	layers.set("store.decode_ms", msSince(t0), "ms")
	r.check(sameAdvice(back.Advice, p.advice), "decoded snapshot advice differs")

	svc := service.New()
	if err := svc.Register("probe", p.snap); err != nil {
		return err
	}
	order := nodeOrder(p.g.N(), r.cfg.seed)
	lat := make([]float64, len(order))
	wrong := 0
	for i, v := range order {
		t0 := time.Now()
		bits, _, err := svc.AdviceBits("probe", v)
		lat[i] = float64(time.Since(t0).Nanoseconds())
		if err != nil || !bits.Equal(p.advice[v]) {
			wrong++
		}
	}
	r.check(wrong == 0, "in-process reads: %d wrong answers", wrong)
	layers.set("service.advice_ns_p50", median(lat), "ns")
	layers.set("service.advice_ns_p99", percentile(lat, 0.99), "ns")
	return nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

func sameAdvice(a, b []*bitstring.BitString) bool {
	return slices.EqualFunc(a, b, func(x, y *bitstring.BitString) bool { return x.Equal(y) })
}

// nodeOrder is the seeded permutation of the nodes that readers walk.
func nodeOrder(n int, seed uint64) []int {
	return rand.New(rand.NewPCG(seed, 0x6e6f646573)).Perm(n)
}

// pipeline is one seeded graph carried through the path every workload
// starts from: generate, run the oracle, save, reopen.
type pipeline struct {
	g      *graph.Graph
	advice []*bitstring.BitString
	snap   *store.Snapshot // as reopened from path
	path   string
}

func generate(r *run) (*graph.Graph, error) {
	t0 := time.Now()
	g, err := gen.BuildSeeded("random", r.n, r.cfg.seed, gen.SeededOptions{Weights: gen.WeightsDistinct})
	r.note("gen.build_s", time.Since(t0))
	return g, err
}

func runOracle(r *run, g *graph.Graph) ([]*bitstring.BitString, error) {
	t0 := time.Now()
	d, err := core.BuildAdviceDetailOpt(g, root, core.DefaultCap, core.OracleOptions{Workers: runtime.NumCPU()})
	r.note("oracle.wall_s", time.Since(t0))
	if err != nil {
		return nil, err
	}
	return d.Advice, nil
}

// save writes the snapshot durably: store.Save fsyncs before renaming.
func save(r *run, path string, g *graph.Graph, adv []*bitstring.BitString) error {
	t0 := time.Now()
	err := store.Save(path, &store.Snapshot{Graph: g, Root: root, Cap: core.DefaultCap, Advice: adv})
	r.note("store.save_s", time.Since(t0))
	return err
}

func open(r *run, path string) (*store.Snapshot, error) {
	t0 := time.Now()
	snap, err := store.OpenMapped(path)
	r.note("store.open_s", time.Since(t0))
	return snap, err
}

func register(r *run, svc *service.Service, id string, snap *store.Snapshot) error {
	t0 := time.Now()
	err := svc.Register(id, snap)
	r.note("service.register_s", time.Since(t0))
	return err
}

func buildPipeline(r *run, path string) (*pipeline, error) {
	g, err := generate(r)
	if err != nil {
		return nil, err
	}
	adv, err := runOracle(r, g)
	if err != nil {
		return nil, err
	}
	if err := save(r, path, g, adv); err != nil {
		return nil, err
	}
	snap, err := open(r, path)
	if err != nil {
		return nil, err
	}
	return &pipeline{g: g, advice: adv, snap: snap, path: path}, nil
}

//go:embed testdata/digests.json
var digestsJSON []byte

// pinnedDigests maps "<workload> seed=<n>" to the SHA-256 of the
// workload's encoded snapshot at its own size.
var pinnedDigests = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("bench: testdata/digests.json: %v", err))
	}
	return m
}()

// checkSnapshot hashes a saved snapshot file and checks it against the
// first one this run saved and, at the workload's own size, against the
// pinned digest.
func checkSnapshot(r *run, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	got := hex.EncodeToString(h.Sum(nil))
	if r.digest == "" {
		r.digest = got
		key := fmt.Sprintf("%s seed=%d", r.cfg.workload, r.cfg.seed)
		if want, ok := pinnedDigests[key]; ok && r.n == specByName(r.cfg.workload).n {
			r.check(got == want, "snapshot digest %s, pinned %s", got, want)
		}
		return nil
	}
	r.check(got == r.digest, "snapshot digest %s changed from %s within the run", got, r.digest)
	return nil
}
