package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/chaos"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/obs"
	"mstadvice/internal/replica"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// replicaBenchQueries is the default fault-free closed-loop size.
const replicaBenchQueries = 20_000

// ReplicaBench is the kill/restart load test of the replicated serving
// tier (BENCH_replica.json, DESIGN.md §2.10). One primary with a
// durable epoch log and one tailing replica serve a failover client
// over real loopback TCP; a writer churns epochs through BOTH phases —
// the write load (and its fsync + GC pressure, which IS the dominant
// latency tail) is identical on both sides, so the p99 ratio isolates
// what the faults cost, not what the writer costs. Rows:
//
//	replica-query        fault-free closed loop, 4 workers, direct to
//	                     both endpoints: QPS, p50/p99 under churn
//	replica-query-chaos  the same closed loop through fault-injecting
//	                     proxies (seeded drops and truncations) while
//	                     the script kills and restarts first the whole
//	                     replica — tail loop, endpoint and in-memory
//	                     state, restarted from its own durable log —
//	                     then the whole primary, which must come back
//	                     from its epoch log alone
//	replica-failover     WallNS = the longest gap between successful
//	                     answers across both kills
//	replica-catchup      WallNS = replica restart → fully caught up
//	                     (Rounds = records it was behind: the epochs
//	                     the writer published while it was down)
//	replica-obs          metrics-vs-truth: the restarted replica's lag
//	                     gauge reads 0 once the writer quiesces and the
//	                     backlog drains, its applied gauge matches the
//	                     bench's own count, and the flight recorder
//	                     captured the reconnects and the chaos script's
//	                     phase transitions (Rounds = events recorded);
//	                     the fault-free row additionally cross-checks
//	                     the servers' answered-advice frame counters
//	                     against the client's observed answers
//
// Verified is the contract, not a timing: zero wrong answers (every
// reply byte-identical to the published advice of the epoch it names),
// zero failed reads, per-worker monotone epochs, chaos p99 within 10x
// the fault-free p99, and full catch-up. Injected faults are drops and
// truncations only — a delay fault would sit in the latency percentile
// itself and turn the p99 bound into a measurement of the schedule.
// Alloc columns stay zero on every row: the concurrent writer makes
// them machine-dependent (same reasoning as the service churn row).
func ReplicaBench(c Config) []BenchResult {
	// The default size keeps one epoch's snapshot cheap enough that the
	// replica's apply path (decode + publish + fsync) sustains the 2ms
	// churn rate with headroom — the bench measures the serving tier
	// under faults, not a replication treadmill that can never drain.
	n := 5_000
	if len(c.Sizes) > 0 {
		n = c.Sizes[0]
	}
	queries := c.Queries
	if queries <= 0 {
		queries = replicaBenchQueries
	}
	return replicaBenchAt(c, n, queries)
}

// epochRefs maps epoch seq → published advice, recorded from the
// primary's publish hook; the reader side of the zero-wrong-answers
// assertion.
type epochRefs struct {
	mu sync.Mutex
	by map[uint64][]*bitstring.BitString
}

func (r *epochRefs) hook(id string, ep *service.Epoch) {
	r.mu.Lock()
	r.by[ep.Seq] = ep.Advice
	r.mu.Unlock()
}

func (r *epochRefs) bits(seq uint64, node int) *bitstring.BitString {
	// The service makes an epoch visible to readers one instruction
	// before its publish hook fires (atomic store, then hooks, both
	// under the entry's writer lock). A reader that races into that
	// window sees an epoch the hook hasn't recorded yet — wait it out
	// instead of miscounting a correct answer as wrong.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		adv := r.by[seq]
		r.mu.Unlock()
		if adv != nil {
			if node >= len(adv) {
				return nil
			}
			return adv[node]
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func replicaBenchAt(c Config, n, queries int) []BenchResult {
	const graphID = "bench"
	g := c.graph("random", n, int64(n)+613)
	adviceBits, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		panic(err)
	}

	dir, err := os.MkdirTemp("", "mstadvice-replica-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	refs := &epochRefs{by: make(map[uint64][]*bitstring.BitString)}

	// Primary: service + durable epoch log + wire server.
	log, err := replica.OpenLog(filepath.Join(dir, "primary.log"))
	if err != nil {
		panic(err)
	}
	primary := service.New()
	primary.OnPublish(refs.hook)
	log.Attach(primary)
	if err := primary.Register(graphID, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adviceBits}); err != nil {
		panic(err)
	}
	srvP := replica.NewServer(primary, log, replica.ServerOptions{})
	if err := srvP.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	addrP := srvP.Addr()

	// The flight recorder spans both phases: replica reconnects and the
	// chaos script's phase transitions land in it, and the replica-obs
	// row asserts they were captured.
	rec := obs.NewRecorder(64)

	// Replica: follower service + its own durable log + wire server. The
	// Head oracle (the primary log's length) turns the lag gauge into
	// true epochs-behind.
	repLog, err := replica.OpenLog(filepath.Join(dir, "replica.log"))
	if err != nil {
		panic(err)
	}
	follower := service.New()
	rep := replica.NewReplica(follower, addrP, replica.ReplicaOptions{
		ReconnectBase: 5 * time.Millisecond, ReconnectCap: 50 * time.Millisecond, Log: repLog,
		Head: log.Len, Recorder: rec,
	})
	repCtx, repCancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	go func() { defer close(repDone); rep.Run(repCtx) }()
	defer func() { repCancel(); <-repDone }()
	waitCaughtUp(rep, log.Len(), 30*time.Second)
	srvR := replica.NewServer(follower, nil, replica.ServerOptions{})
	if err := srvR.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	addrR := srvR.Addr()

	// Warmup update: pays the lazy advisor build outside both measured
	// phases, exactly like ServiceBench's churn warmup.
	probe := svcAdvisorProbe(g)
	target := graph.EdgeID(-1)
	for e := 0; e < g.M(); e++ {
		if !probe.InTree[e] {
			target = graph.EdgeID(e)
			break
		}
	}
	if target < 0 {
		panic("replica bench: no non-tree edge to churn")
	}
	w0 := g.Weight(target)
	if _, err := primary.Update(context.Background(), graphID, graph.Batch{
		Weights: []graph.WeightUpdate{{Edge: target, W: w0 + 1}}}); err != nil {
		panic(err)
	}
	waitCaughtUp(rep, log.Len(), 30*time.Second)

	base := BenchResult{Kind: "replica", Family: "random", N: g.N(), M: g.M()}
	var out []BenchResult

	// The churn writer spans both phases; the fault script swaps the
	// live primary under it across the restart.
	churn := startChurn(graphID, target, w0, primary)
	defer churn.halt()

	// Phase 1: fault-free closed loop, direct to both endpoints, under
	// the same write churn the chaos phase will see.
	epochs0 := churn.epochs.Load()
	freeRow := replicaQueryFixed(base, []string{addrP, addrR}, graphID, refs, 4, queries, n,
		[]*obs.Registry{srvP.Metrics(), srvR.Metrics()})
	freeRow.Scheme = "replica-query"
	freeRow.Rounds = int(churn.epochs.Load() - epochs0)
	out = append(out, freeRow)

	// Quiesce between phases: pause the writer and let the replica drain
	// whatever backlog phase 1 left (on a slow or instrumented machine
	// the apply path cannot match the churn rate, so the lag is
	// unbounded in phase length). The chaos rows must measure the
	// scripted faults, not a pre-existing backlog.
	// The deadline is generous: under the race detector one record's
	// apply (decode + validate) can cost a full second, and phase 1 can
	// leave a backlog of dozens.
	churn.pause()
	waitCaughtUp(rep, log.Len(), 120*time.Second)
	churn.primaryUp.Store(true)

	// Phase 2: the same load through fault-injecting proxies while the
	// script kills and restarts the replica endpoint and then the whole
	// primary. The proxy addresses are the client's fixed endpoints, so
	// server restarts rebind the original server ports behind them.
	sched := chaos.Schedule{Seed: uint64(c.Seed)*0x9E37 + 1, DropPct: 10, TruncatePct: 10, MaxTruncate: 1 << 12}
	pP, err := chaos.NewProxy(addrP, sched)
	if err != nil {
		panic(err)
	}
	defer pP.Close()
	pR, err := chaos.NewProxy(addrR, chaos.Schedule{Seed: uint64(c.Seed)*0x9E37 + 2, DropPct: 10, TruncatePct: 10, MaxTruncate: 1 << 12})
	if err != nil {
		panic(err)
	}
	defer pR.Close()

	killReplica := func() {
		repCancel()
		<-repDone
		srvR.Close()
	}
	chaosRows := replicaChaosPhase(base, chaosEnv{
		graphID: graphID, refs: refs, n: n, log: log, repLog: repLog,
		killReplica: killReplica, churn: churn, rec: rec,
		srvP: srvP, addrP: addrP, addrR: addrR,
		endpoints: []string{pP.Addr(), pR.Addr()},
		freeP99:   freeRow.P99NS,
	})
	out = append(out, chaosRows...)
	return out
}

// churnState is the epoch writer shared by both phases. The fault
// script flips primaryUp around the primary's crash window and swaps
// cur to the restarted service.
type churnState struct {
	stop      atomic.Bool
	primaryUp atomic.Bool
	mu        sync.Mutex // held across each update; see pause
	cur       atomic.Pointer[service.Service]
	epochs    atomic.Int64
	done      chan struct{}
}

func startChurn(graphID string, edge graph.EdgeID, w0 graph.Weight, first *service.Service) *churnState {
	cs := &churnState{done: make(chan struct{})}
	cs.primaryUp.Store(true)
	cs.cur.Store(first)
	go func() {
		defer close(cs.done)
		for i := 0; !cs.stop.Load(); i++ {
			if cs.primaryUp.Load() {
				cs.mu.Lock()
				if cs.primaryUp.Load() {
					svc := cs.cur.Load()
					b := graph.Batch{Weights: []graph.WeightUpdate{
						{Edge: edge, W: w0 + graph.Weight(2+i%2)}}}
					if _, err := svc.Update(context.Background(), graphID, b); err == nil {
						cs.epochs.Add(1)
					}
				}
				cs.mu.Unlock()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return cs
}

// pause stops the writer and returns only after any in-flight update
// has fully published: once it returns, the epoch log's length is
// final until the writer is resumed.
func (cs *churnState) pause() {
	cs.primaryUp.Store(false)
	cs.mu.Lock()
	//lint:ignore SA2001 the lock is a barrier for the in-flight update
	cs.mu.Unlock()
}

func (cs *churnState) halt() {
	if cs.stop.CompareAndSwap(false, true) {
		<-cs.done
	}
}

// waitCaughtUp blocks until the replica applied at least target log
// records. The target is fixed at the call — the churn writer keeps
// appending, so "applied == log.Len()" is a moving goalpost a slow
// machine might never touch; draining the backlog that existed at
// restart time is the catch-up being measured.
func waitCaughtUp(rep *replica.Replica, target int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for rep.Applied() < target {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			panic(fmt.Sprintf("replica bench: replica stuck at %d/%d (last error: %q)\n%s",
				rep.Applied(), target, rep.LastErr(), buf))
		}
		time.Sleep(time.Millisecond)
	}
}

// replicaQueryFixed drives a fixed-count closed loop and verifies every
// answer against the published epoch it names.
func replicaQueryFixed(base BenchResult, endpoints []string, graphID string,
	refs *epochRefs, workers, queries, n int, srvRegs []*obs.Registry) BenchResult {

	cli, err := replica.NewClient(endpoints, replica.ClientOptions{
		Timeout: 2 * time.Second, Attempts: 8, BackoffBase: 500 * time.Microsecond, Seed: 17,
	})
	if err != nil {
		panic(err)
	}
	defer cli.Close()

	perWorker := queries / workers
	if perWorker < 1 {
		perWorker = 1
	}
	latencies := make([][]int64, workers)
	for w := range latencies {
		latencies[w] = make([]int64, perWorker)
	}
	var bad atomic.Int64
	var firstBad atomic.Pointer[string]
	flagBad := func(format string, args ...any) {
		bad.Add(1)
		msg := fmt.Sprintf(format, args...)
		firstBad.CompareAndSwap(nil, &msg)
	}
	framesBefore := serverAdviceOKFrames(srvRegs)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			lat := latencies[w]
			for i := 0; i < perWorker; i++ {
				node := (w*perWorker + i*7919) % n
				q0 := time.Now()
				ans, err := cli.Advice(context.Background(), graphID, node)
				lat[i] = time.Since(q0).Nanoseconds()
				if err != nil {
					flagBad("query err node=%d: %v", node, err)
					continue
				}
				if ans.Epoch < lastEpoch {
					flagBad("epoch regressed node=%d: %d < %d", node, ans.Epoch, lastEpoch)
					continue
				}
				if !ans.Bits.Equal(refs.bits(ans.Epoch, node)) {
					flagBad("bits mismatch node=%d epoch=%d", node, ans.Epoch)
					continue
				}
				lastEpoch = ans.Epoch
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	// Metrics-vs-truth cross-check: every advice frame the servers
	// answered OK reached this client as either an accepted answer or a
	// stale-epoch retry (the server answered; the client rejected the
	// lagging epoch and asked elsewhere). The server increments its frame
	// counter before writing the reply, so by the time every reply has
	// been read here the two sides must agree exactly.
	serverOK := serverAdviceOKFrames(srvRegs) - framesBefore
	clientOK := clientAdviceOutcomes(cli, endpoints, "ok") + clientAdviceOutcomes(cli, endpoints, "stale")
	if serverOK != clientOK {
		flagBad("metrics cross-check: servers answered %d advice frames OK, client observed %d (ok+stale)", serverOK, clientOK)
	}

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
	row.Verified = bad.Load() == 0
	if !row.Verified {
		fmt.Fprintf(os.Stderr, "experiments: replica query contract failed: bad=%d first=%s\n",
			bad.Load(), *firstBad.Load())
	}
	return row
}

// serverAdviceOKFrames sums the servers' successfully answered advice
// frames across the given registries.
func serverAdviceOKFrames(regs []*obs.Registry) uint64 {
	var total uint64
	for _, reg := range regs {
		v, _ := reg.CounterValue("replica_server_frames_total", "op", "advice", "result", "ok")
		total += v
	}
	return total
}

// clientAdviceOutcomes sums the client's per-endpoint attempt counters
// for one outcome.
func clientAdviceOutcomes(cli *replica.Client, endpoints []string, outcome string) uint64 {
	var total uint64
	for _, ep := range endpoints {
		v, _ := cli.Metrics().CounterValue("replica_client_attempts_total", "endpoint", ep, "outcome", outcome)
		total += v
	}
	return total
}

type chaosEnv struct {
	graphID     string
	refs        *epochRefs
	n           int
	log         *replica.Log // the primary's durable epoch log
	repLog      *replica.Log // the replica's durable mirror
	killReplica func()       // stops the tail loop and closes the endpoint
	churn       *churnState
	rec         *obs.Recorder
	srvP        *replica.Server
	addrP       string
	addrR       string
	endpoints   []string
	freeP99     int64
}

// replicaChaosPhase runs the kill/restart script under closed-loop load
// through the chaos proxies and returns the chaos, failover and
// catch-up rows.
func replicaChaosPhase(base BenchResult, env chaosEnv) []BenchResult {
	const (
		workers    = 4
		scriptStep = 60 * time.Millisecond
	)
	// Retries must be cheap relative to the p99 bound: a kill window
	// makes ~half the attempts fail until the endpoint returns, so a
	// coarse backoff would show up as a multi-ms latency tail that
	// measures the client's sleep schedule, not the serving path.
	cli, err := replica.NewClient(env.endpoints, replica.ClientOptions{
		Timeout: 2 * time.Second, Attempts: 40,
		BackoffBase: 50 * time.Microsecond, BackoffCap: 500 * time.Microsecond, Seed: 23,
	})
	if err != nil {
		panic(err)
	}
	defer cli.Close()

	var (
		stop         atomic.Bool
		bad          atomic.Int64
		readErrs     atomic.Int64
		lastOKNS     atomic.Int64 // UnixNano of the last successful answer
		maxGapNS     atomic.Int64
		latMu        sync.Mutex
		allLatencies []int64
	)
	lastOKNS.Store(time.Now().UnixNano())

	epochs0 := env.churn.epochs.Load()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			var lat []int64
			for i := 0; !stop.Load(); i++ {
				node := (w*7907 + i*7919) % env.n
				q0 := time.Now()
				ans, err := cli.Advice(context.Background(), env.graphID, node)
				d := time.Since(q0).Nanoseconds()
				if err != nil {
					readErrs.Add(1)
					continue
				}
				lat = append(lat, d)
				now := time.Now().UnixNano()
				prev := lastOKNS.Swap(now)
				if gap := now - prev; gap > maxGapNS.Load() {
					maxGapNS.Store(gap)
				}
				if ans.Epoch < lastEpoch || !ans.Bits.Equal(env.refs.bits(ans.Epoch, node)) {
					bad.Add(1)
					continue
				}
				lastEpoch = ans.Epoch
			}
			latMu.Lock()
			allLatencies = append(allLatencies, lat...)
			latMu.Unlock()
		}(w)
	}

	// The fault script. Every wait is a fixed step so the phase's wall
	// time is dominated by the script, not the machine.
	time.Sleep(scriptStep)

	// Kill the whole replica — tail loop, endpoint, in-memory state.
	// Only its durable log survives; the writer races ahead while it is
	// down.
	env.rec.Record("chaos", "killing replica endpoint %s", env.addrR)
	env.killReplica()
	time.Sleep(scriptStep)

	// Restart it from the durable log alone: replay the local mirror,
	// resume tailing after it, serve on the same port.
	follower2 := service.New()
	rep2 := replica.NewReplica(follower2, env.addrP, replica.ReplicaOptions{
		ReconnectBase: 5 * time.Millisecond, ReconnectCap: 50 * time.Millisecond, Log: env.repLog,
		Head: env.log.Len, Recorder: env.rec,
	})
	if err := rep2.ReplayLocal(); err != nil {
		panic(err)
	}
	rep2Ctx, rep2Cancel := context.WithCancel(context.Background())
	rep2Done := make(chan struct{})
	go func() { defer close(rep2Done); rep2.Run(rep2Ctx) }()
	defer func() { rep2Cancel(); <-rep2Done }()
	replicaRestart := time.Now()
	targetR := env.log.Len()
	behind := targetR - rep2.Applied()
	srvR2 := replica.NewServer(follower2, nil, replica.ServerOptions{})
	rebind(srvR2, env.addrR)
	defer srvR2.Close()

	env.rec.Record("chaos", "replica restarted from durable log, %d records behind", behind)

	// Catch-up: the restarted replica drains everything the writer
	// published while it was down.
	waitCaughtUp(rep2, targetR, 30*time.Second)
	catchup := time.Since(replicaRestart)
	time.Sleep(scriptStep)

	// Kill the primary — endpoint AND service state. The writer loses
	// its target; the restarted primary must rebuild from the epoch log
	// alone, exactly like a crashed process. The writer is drained and
	// the replica brought to the log head BEFORE the kill: an epoch
	// acknowledged only by the primary would be transiently unserveable
	// anywhere, and a client that had already observed it would burn its
	// whole failover budget on stale answers. (Crashing mid-write is
	// exercised separately by the torn-record durable-log tests.)
	env.churn.pause()
	waitCaughtUp(rep2, env.log.Len(), 30*time.Second)
	env.rec.Record("chaos", "killing primary endpoint %s", env.addrP)
	env.srvP.Close()
	time.Sleep(scriptStep)
	primary2 := service.New()
	if err := env.log.Replay(primary2); err != nil {
		panic(err)
	}
	primary2.OnPublish(env.refs.hook)
	env.log.Attach(primary2)
	env.churn.cur.Store(primary2)
	srvP2 := replica.NewServer(primary2, env.log, replica.ServerOptions{})
	rebind(srvP2, env.addrP)
	defer srvP2.Close()
	env.rec.Record("chaos", "primary restarted from its epoch log (%d records)", env.log.Len())
	env.churn.primaryUp.Store(true)

	// The replica reconnects to the restarted primary and resumes the
	// tail stream exactly where it stopped.
	target := env.log.Len()
	waitCaughtUp(rep2, target, 30*time.Second)
	caughtUp := rep2.Applied() >= target

	// Gauge-vs-truth check: quiesce the writer, drain the replica to the
	// frozen log head, and the lag gauge must read exactly 0 — the
	// scrape-time arithmetic (head − applied) agreeing with the ground
	// truth the bench tracks itself.
	env.churn.pause()
	waitCaughtUp(rep2, env.log.Len(), 30*time.Second)
	lag, lagFound := rep2.Metrics().GaugeValue("replica_lag_records")
	applied, _ := rep2.Metrics().GaugeValue("replica_applied_records")
	appliedTruth := rep2.Applied()
	env.churn.primaryUp.Store(true)

	time.Sleep(scriptStep)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)

	reconnects, _ := rep2.Metrics().CounterValue("replica_reconnects_total")
	obsRow := base
	obsRow.Scheme = "replica-obs"
	obsRow.Workers = 1
	obsRow.Rounds = int(env.rec.Total())
	// The lag gauge settled at 0, the applied gauge matches the bench's
	// own count, the primary kill produced at least one recorded
	// reconnect, and the flight recorder captured both the chaos phase
	// transitions and the reconnects.
	obsRow.Verified = lagFound && lag == 0 && int64(applied) == int64(appliedTruth) &&
		reconnects >= 1 && recorderHasKind(env.rec, "chaos") && recorderHasKind(env.rec, "reconnect")
	if !obsRow.Verified {
		fmt.Fprintf(os.Stderr, "experiments: replica obs contract failed: lag=%v(found=%v) applied=%v(truth=%d) reconnects=%d events=%d\n",
			lag, lagFound, applied, appliedTruth, reconnects, env.rec.Total())
	}

	slices.Sort(allLatencies)
	total := int64(len(allLatencies))
	chaosRow := base
	chaosRow.Scheme = "replica-query-chaos"
	chaosRow.Workers = workers
	chaosRow.Queries = total
	chaosRow.WallNS = wall.Nanoseconds()
	if total > 0 {
		chaosRow.QPS = float64(total) / wall.Seconds()
		chaosRow.P50NS = allLatencies[total/2]
		chaosRow.P99NS = allLatencies[total*99/100]
	}
	chaosRow.Rounds = int(env.churn.epochs.Load() - epochs0)
	// The contract: no wrong or stale answer ever, no failed read (the
	// failover budget rides out every scripted kill), p99 within 10x of
	// fault-free, and the replica fully caught up.
	chaosRow.Verified = bad.Load() == 0 && readErrs.Load() == 0 && total > 0 &&
		chaosRow.P99NS <= 10*env.freeP99 && caughtUp
	if !chaosRow.Verified {
		fmt.Fprintf(os.Stderr, "experiments: replica chaos contract failed: wrong=%d readErrs=%d queries=%d p99=%.2fms (bound %.2fms) caughtUp=%v\n",
			bad.Load(), readErrs.Load(), total, float64(chaosRow.P99NS)/1e6, float64(10*env.freeP99)/1e6, caughtUp)
	}
	out := []BenchResult{chaosRow}

	failoverRow := base
	failoverRow.Scheme = "replica-failover"
	failoverRow.Workers = workers
	failoverRow.WallNS = maxGapNS.Load()
	failoverRow.Verified = chaosRow.Verified && maxGapNS.Load() < (2*time.Second).Nanoseconds()
	out = append(out, failoverRow)

	catchupRow := base
	catchupRow.Scheme = "replica-catchup"
	catchupRow.Workers = 1
	catchupRow.WallNS = catchup.Nanoseconds()
	catchupRow.Rounds = behind
	catchupRow.Verified = caughtUp
	out = append(out, catchupRow)
	out = append(out, obsRow)
	return out
}

// recorderHasKind reports whether the flight recorder retained at least
// one event of the kind.
func recorderHasKind(rec *obs.Recorder, kind string) bool {
	for _, ev := range rec.Events() {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// rebind binds a server to a just-freed address, retrying while the OS
// releases the port.
func rebind(s *replica.Server, addr string) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Listen(addr)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("replica bench: cannot rebind %s: %v", addr, err))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
