package replica

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
	"mstadvice/internal/obs"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// TestKillRestartDrill is the kill/restart drill of the replicated
// serving tier (DESIGN.md §2.10). One primary with a durable epoch log
// and one tailing replica serve a failover client over real loopback
// TCP, while a writer publishes an epoch about every 2 ms through both
// phases — the write load (and its fsync and GC pressure, the dominant
// latency tail) is the same on both sides, so the p99 ratio isolates
// what the faults cost:
//
//   - fault-free: a fixed closed loop of 20 000 reads, 4 workers,
//     direct to both endpoints;
//   - chaos: the same closed loop through fault-injecting proxies
//     (seeded drops and truncations) while the script kills the whole
//     replica and restarts it from its own durable log, then kills the
//     whole primary, which must come back from its epoch log alone.
//
// The contract: zero wrong answers (every reply byte-identical to the
// published advice of the epoch it names) and zero failed reads;
// per-worker monotone epochs; chaos p99 within 10× the fault-free p99
// and no gap of 2 s between answers; full catch-up after each restart;
// the replica's lag and applied gauges equal to the true values; the
// flight recorder holding the chaos script's events and a reconnect;
// and the servers' OK advice frames equal to the client's ok + stale
// answers. Injected faults are drops and truncations only: a delay
// would sit in the latency percentile itself and turn the p99 bound
// into a measurement of the schedule.
func TestKillRestartDrill(t *testing.T) {
	const (
		n = 5_000 // one epoch stays cheap enough to apply at the churn rate
		// Long enough for the fault-free phase to sample the writer's
		// fsync and GC stalls: with 2 000 queries its p99 could miss them
		// and the 10× bound failed under concurrent test load.
		queries = 20_000
		graphID = "drill"
	)
	g := seeded(t, "random", n, 1315423911+n+613, gen.WeightsDistinct)
	adviceBits, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	refs := &epochRefs{by: make(map[uint64][]*bitstring.BitString)}

	// Primary: service + durable epoch log + wire server.
	log, err := OpenLog(filepath.Join(dir, "primary.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	primary := service.New()
	primary.OnPublish(refs.hook)
	log.Attach(primary)
	if err := primary.Register(graphID, &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adviceBits}); err != nil {
		t.Fatal(err)
	}
	srvP := NewServer(primary, log, ServerOptions{})
	if err := srvP.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvP.Close() // the script closes it first; Close is idempotent
	addrP := srvP.Addr()

	// The flight recorder spans both phases: replica reconnects and the
	// script's phase transitions land in it.
	rec := obs.NewRecorder(64)

	// Replica: follower service + its own durable log + wire server. The
	// Head oracle (the primary log's length) turns the lag gauge into
	// true epochs-behind.
	repLog, err := OpenLog(filepath.Join(dir, "replica.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer repLog.Close()
	follower := service.New()
	rep := NewReplica(follower, addrP, ReplicaOptions{
		ReconnectBase: 5 * time.Millisecond, ReconnectCap: 50 * time.Millisecond, Log: repLog,
		Head: log.Len, Recorder: rec,
	})
	repCtx, repCancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	go func() { defer close(repDone); rep.Run(repCtx) }()
	defer func() { repCancel(); <-repDone }()
	waitCaughtUp(t, rep, log.Len(), 30*time.Second)
	srvR := NewServer(follower, nil, ServerOptions{})
	if err := srvR.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvR.Close()
	addrR := srvR.Addr()

	// Warm-up update: pays the lazy advisor build outside both phases.
	target := nonTreeEdge(t, g)
	w0 := g.Weight(target)
	if _, err := primary.Update(context.Background(), graphID, graph.Batch{
		Weights: []graph.WeightUpdate{{Edge: target, W: w0 + 1}}}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep, log.Len(), 30*time.Second)

	// The writer spans both phases; the script swaps the live primary
	// under it across the restart.
	churn := startChurn(graphID, target, w0, primary)
	defer churn.halt()

	// Fault-free phase, under the same write churn the chaos phase sees.
	freeP99 := fixedLoop(t, []string{addrP, addrR}, graphID, refs, 4, queries, n,
		[]*obs.Registry{srvP.Metrics(), srvR.Metrics()})

	// Quiesce between phases: pause the writer and let the replica drain
	// whatever backlog the first phase left, so the chaos phase measures
	// the scripted faults, not a pre-existing backlog. The deadline is
	// generous: under the race detector one record's apply can take a
	// second.
	churn.pause()
	waitCaughtUp(t, rep, log.Len(), 120*time.Second)
	churn.primaryUp.Store(true)

	// Chaos phase. The proxy addresses are the client's fixed endpoints,
	// so restarted servers rebind the original ports behind them.
	pP, err := NewProxy(addrP, Schedule{Seed: 0x9E37 + 1, DropPct: 10, TruncatePct: 10, MaxTruncate: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer pP.Close()
	pR, err := NewProxy(addrR, Schedule{Seed: 0x9E37 + 2, DropPct: 10, TruncatePct: 10, MaxTruncate: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer pR.Close()
	killReplica := func() {
		repCancel()
		<-repDone
		srvR.Close()
	}
	chaosPhase(t, chaosEnv{
		graphID: graphID, refs: refs, n: n, log: log, repLog: repLog,
		killReplica: killReplica, churn: churn, rec: rec,
		srvP: srvP, addrP: addrP, addrR: addrR,
		endpoints: []string{pP.Addr(), pR.Addr()},
		freeP99:   freeP99,
	})
}

// nonTreeEdge returns an edge outside the MST: reweighting it publishes
// a new epoch through the advisor's fast path.
func nonTreeEdge(t *testing.T, g *graph.Graph) graph.EdgeID {
	t.Helper()
	tree, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	inTree := make([]bool, g.M())
	for _, e := range tree {
		inTree[e] = true
	}
	for e := range inTree {
		if !inTree[e] {
			return graph.EdgeID(e)
		}
	}
	t.Fatal("no non-tree edge to churn")
	return -1
}

// epochRefs maps epoch seq → published advice, recorded from the
// primary's publish hook; the reader side of the zero-wrong-answers
// check.
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

// churnState is the epoch writer shared by both phases. The script
// flips primaryUp around the primary's crash window and swaps cur to
// the restarted service.
type churnState struct {
	stop      atomic.Bool
	primaryUp atomic.Bool
	mu        sync.Mutex // held across each update; see pause
	cur       atomic.Pointer[service.Service]
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
					b := graph.Batch{Weights: []graph.WeightUpdate{
						{Edge: edge, W: w0 + graph.Weight(2+i%2)}}}
					// A failed update publishes nothing; the readers
					// check whatever was published.
					cs.cur.Load().Update(context.Background(), graphID, b)
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
// records. The target is fixed at the call — the writer keeps
// appending, so "applied == log.Len()" is a moving goalpost a slow
// machine might never touch; draining the backlog that existed at the
// call is the catch-up being checked.
func waitCaughtUp(t *testing.T, rep *Replica, target int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for rep.applied.Load() < int64(target) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("replica stuck at %d/%d (last error: %v)\n%s", rep.applied.Load(), target, rep.lastErr.Load(), buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// fixedLoop drives a fixed-count closed loop, checks every answer
// against the published epoch it names and the servers' OK frame
// counters against the client's, and returns the loop's p99 latency.
func fixedLoop(t *testing.T, endpoints []string, graphID string,
	refs *epochRefs, workers, queries, n int, srvRegs []*obs.Registry) time.Duration {
	t.Helper()
	cli, err := NewClient(endpoints, ClientOptions{
		Timeout: 2 * time.Second, Attempts: 8, BackoffBase: 500 * time.Microsecond, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	perWorker := queries / workers
	latencies := make([][]time.Duration, workers)
	var bad atomic.Int64
	var firstBad atomic.Pointer[string]
	flagBad := func(format string, args ...any) {
		bad.Add(1)
		msg := fmt.Sprintf(format, args...)
		firstBad.CompareAndSwap(nil, &msg)
	}
	framesBefore := serverAdviceOKFrames(srvRegs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			lat := make([]time.Duration, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				node := (w*perWorker + i*7919) % n
				q0 := time.Now()
				ans, err := cli.Advice(context.Background(), graphID, node)
				lat = append(lat, time.Since(q0))
				switch {
				case err != nil:
					flagBad("query err node=%d: %v", node, err)
				case ans.Epoch < lastEpoch:
					flagBad("epoch regressed node=%d: %d < %d", node, ans.Epoch, lastEpoch)
				case !ans.Bits.Equal(refs.bits(ans.Epoch, node)):
					flagBad("bits mismatch node=%d epoch=%d", node, ans.Epoch)
				default:
					lastEpoch = ans.Epoch
				}
			}
			latencies[w] = lat
		}(w)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Errorf("fault-free phase: %d bad answers, first: %s", bad.Load(), *firstBad.Load())
	}

	// Every advice frame the servers answered OK reached this client as
	// either an accepted answer or a stale-epoch retry (the server
	// answered; the client rejected the lagging epoch and asked
	// elsewhere). The server counts a frame before writing the reply, so
	// once every reply has been read the two sides agree exactly.
	serverOK := serverAdviceOKFrames(srvRegs) - framesBefore
	clientOK := clientAdviceOutcomes(cli, endpoints, "ok") + clientAdviceOutcomes(cli, endpoints, "stale")
	if serverOK != clientOK {
		t.Errorf("servers answered %d advice frames OK, client observed %d (ok+stale)", serverOK, clientOK)
	}
	return p99(slices.Concat(latencies...))
}

// p99 returns the 99th percentile of the latencies, sorting them.
func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	return lat[len(lat)*99/100]
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
func clientAdviceOutcomes(cli *Client, endpoints []string, outcome string) uint64 {
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
	log         *Log   // the primary's durable epoch log
	repLog      *Log   // the replica's durable mirror
	killReplica func() // stops the tail loop and closes the endpoint
	churn       *churnState
	rec         *obs.Recorder
	srvP        *Server
	addrP       string
	addrR       string
	endpoints   []string
	freeP99     time.Duration
}

// chaosPhase runs the kill/restart script under closed-loop load
// through the chaos proxies and checks the drill's contract.
func chaosPhase(t *testing.T, env chaosEnv) {
	const (
		workers    = 4
		scriptStep = 60 * time.Millisecond
	)
	// Retries must be cheap relative to the p99 bound: a kill window
	// makes about half the attempts fail until the endpoint returns, so
	// a coarse backoff would show up as a multi-ms latency tail that
	// measures the client's sleep schedule, not the serving path.
	cli, err := NewClient(env.endpoints, ClientOptions{
		Timeout: 2 * time.Second, Attempts: 40,
		BackoffBase: 50 * time.Microsecond, BackoffCap: 500 * time.Microsecond, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var (
		stop         atomic.Bool
		bad          atomic.Int64
		readErrs     atomic.Int64
		lastOKNS     atomic.Int64 // UnixNano of the last successful answer
		maxGapNS     atomic.Int64
		latMu        sync.Mutex
		allLatencies []time.Duration
	)
	lastOKNS.Store(time.Now().UnixNano())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastEpoch := uint64(0)
			var lat []time.Duration
			for i := 0; !stop.Load(); i++ {
				node := (w*7907 + i*7919) % env.n
				q0 := time.Now()
				ans, err := cli.Advice(context.Background(), env.graphID, node)
				d := time.Since(q0)
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
	// Stop the readers even when a check below fails the test early.
	stopReaders := func() { stop.Store(true); wg.Wait() }
	defer stopReaders()

	// The fault script. Every wait is a fixed step, so the phase's wall
	// time is set by the script, not the machine.
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
	rep2 := NewReplica(follower2, env.addrP, ReplicaOptions{
		ReconnectBase: 5 * time.Millisecond, ReconnectCap: 50 * time.Millisecond, Log: env.repLog,
		Head: env.log.Len, Recorder: env.rec,
	})
	if err := rep2.ReplayLocal(); err != nil {
		t.Fatal(err)
	}
	rep2Ctx, rep2Cancel := context.WithCancel(context.Background())
	rep2Done := make(chan struct{})
	go func() { defer close(rep2Done); rep2.Run(rep2Ctx) }()
	defer func() { rep2Cancel(); <-rep2Done }()
	targetR := env.log.Len()
	behind := targetR - int(rep2.applied.Load())
	srvR2 := NewServer(follower2, nil, ServerOptions{})
	rebind(t, srvR2, env.addrR)
	defer srvR2.Close()
	env.rec.Record("chaos", "replica restarted from durable log, %d records behind", behind)

	// Catch-up: the restarted replica drains everything the writer
	// published while it was down.
	waitCaughtUp(t, rep2, targetR, 30*time.Second)
	time.Sleep(scriptStep)

	// Kill the primary — endpoint and service state. The writer loses
	// its target; the restarted primary must rebuild from the epoch log
	// alone, like a crashed process. The writer is drained and the
	// replica brought to the log head before the kill: an epoch
	// acknowledged only by the primary would be unserveable anywhere for
	// a while, and a client that had already observed it would burn its
	// whole failover budget on stale answers. (Crashing mid-write is
	// covered by the torn-record durable-log tests.)
	env.churn.pause()
	waitCaughtUp(t, rep2, env.log.Len(), 30*time.Second)
	env.rec.Record("chaos", "killing primary endpoint %s", env.addrP)
	env.srvP.Close()
	time.Sleep(scriptStep)
	primary2 := service.New()
	if err := env.log.Replay(primary2); err != nil {
		t.Fatal(err)
	}
	primary2.OnPublish(env.refs.hook)
	env.log.Attach(primary2)
	env.churn.cur.Store(primary2)
	srvP2 := NewServer(primary2, env.log, ServerOptions{})
	rebind(t, srvP2, env.addrP)
	defer srvP2.Close()
	env.rec.Record("chaos", "primary restarted from its epoch log (%d records)", env.log.Len())
	env.churn.primaryUp.Store(true)

	// The replica reconnects to the restarted primary and resumes the
	// tail stream exactly where it stopped.
	waitCaughtUp(t, rep2, env.log.Len(), 30*time.Second)

	// Gauges against the truth: quiesce the writer, drain the replica to
	// the frozen log head, and the lag gauge must read exactly 0 — the
	// scrape-time arithmetic (head − applied) agreeing with the truth —
	// and the applied gauge must equal the replica's own count.
	env.churn.pause()
	waitCaughtUp(t, rep2, env.log.Len(), 30*time.Second)
	var scrape strings.Builder
	if err := rep2.Metrics().WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	lag, lagFound := gaugeIn(scrape.String(), "replica_lag_records")
	applied, _ := gaugeIn(scrape.String(), "replica_applied_records")
	appliedTruth := rep2.applied.Load()
	env.churn.primaryUp.Store(true)

	time.Sleep(scriptStep)
	stopReaders()

	if !lagFound || lag != 0 || int64(applied) != int64(appliedTruth) {
		t.Errorf("gauges: lag=%v (found=%v), applied=%v, want lag 0 and applied %d", lag, lagFound, applied, appliedTruth)
	}
	if reconnects, _ := rep2.Metrics().CounterValue("replica_reconnects_total"); reconnects < 1 {
		t.Error("the primary's restart produced no recorded reconnect")
	}
	for _, kind := range []string{"chaos", "reconnect"} {
		if !recorderHasKind(env.rec, kind) {
			t.Errorf("flight recorder holds no %q event (%d events recorded)", kind, env.rec.Total())
		}
	}
	total := len(allLatencies)
	if bad.Load() != 0 || readErrs.Load() != 0 || total == 0 {
		t.Errorf("chaos phase: %d wrong or stale answers, %d failed reads, %d answers", bad.Load(), readErrs.Load(), total)
	}
	chaosP99, gap := p99(allLatencies), time.Duration(maxGapNS.Load())
	if chaosP99 > 10*env.freeP99 {
		t.Errorf("chaos p99 %v above 10× the fault-free p99 %v", chaosP99, env.freeP99)
	}
	if gap >= 2*time.Second {
		t.Errorf("longest gap between answers %v, want under 2s", gap)
	}
	t.Logf("p99 fault-free %v, chaos %v; %d chaos-phase answers; replica %d records behind at restart; longest gap %v",
		env.freeP99, chaosP99, total, behind, gap)
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
func rebind(t *testing.T, s *Server, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Listen(addr)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cannot rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gaugeIn reads an unlabelled gauge's value from /metrics exposition
// text (false when the text has no such series).
func gaugeIn(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}
